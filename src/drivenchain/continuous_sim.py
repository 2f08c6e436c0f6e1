"""Event-driven simulator for the continuous energy chain.

The energy model moves an amount alpha of energy across an edge at rate
d(alpha)/alpha, so its jump activity diverges at small alpha: there is no
first jump.  The simulator truncates every jump measure below a cutoff
``epsilon``: removal/bulk channels at site x then fire at total rate
log(z_x/epsilon) (zero once z_x <= epsilon) and the reservoir at temperature T
injects at rate E1(epsilon/T).  The discarded small-jump drift from
injections and removals nearly cancels; the residual bias is O(epsilon) and
is probed empirically by cutoff-refinement runs rather than corrected.

Occupation statistics come from ``occupation.run_window``, as in
``discrete_sim``.  A run fails with RuntimeError on rate-cache drift past
``core.RESYNC_DRIFT_TOL``, on an energy balance off by more than 1e-9
relative, or on a negative energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (ChainParams, FenwickTree, exp_integral_e1, make_rng, reset_rates,
                   select_site)
from .occupation import BinnedHistogram, OccupationStats, run_window

__all__ = [
    "ContSimState",
    "InjectionSampler",
    "new_state_continuous",
    "step_continuous",
    "simulate_continuous",
    "sample_alpha_removal",
    "sample_alpha_injection",
    "default_epsilon",
]

LINEAR_SCAN_MAX_SITES = 64
RESYNC_INTERVAL = 1_000_000
DEFAULT_GRID_SAMPLES = 1 << 16
HIST_BINS = 256


def default_epsilon(params: ChainParams) -> float:
    return 1e-6 * min(params.t_a, 1.0)


def sample_alpha_removal(z: float, epsilon: float, rng: np.random.Generator) -> float:
    """Jump size with density 1/(alpha log(z/eps)) on [eps, z], by exact inversion."""
    if not z > epsilon:
        raise ValueError(f"sample_alpha_removal needs z > epsilon, got z={z}, eps={epsilon}")
    alpha = epsilon * (z / epsilon) ** rng.random()
    return alpha if alpha < z else z


class InjectionSampler:
    """Draws jump sizes with density proportional to exp(-a/T)/a on [eps, inf).

    Mixture rejection with split point s = max(eps, T): below s, propose from
    1/a by inversion and accept with exp(-a/T) (at least e^{-1} there); above
    s, propose s plus an Exponential(T) overshoot and accept with s/a.  Branch
    masses come from the exponential integral, so the mixture is exact.
    """

    __slots__ = ("temperature", "epsilon", "split", "mass_low", "mass_high",
                 "log_ratio", "proposals", "accepts")

    def __init__(self, temperature: float, epsilon: float) -> None:
        if temperature <= 0.0 or epsilon <= 0.0:
            raise ValueError("need temperature > 0 and epsilon > 0")
        self.temperature = temperature
        self.epsilon = epsilon
        self.split = max(epsilon, temperature)
        self.mass_high = exp_integral_e1(self.split / temperature)
        if epsilon < self.split:
            self.mass_low = exp_integral_e1(epsilon / temperature) - self.mass_high
            self.log_ratio = math.log(self.split / epsilon)
        else:
            self.mass_low = 0.0
            self.log_ratio = 0.0
        self.proposals = 0
        self.accepts = 0

    @property
    def total_rate(self) -> float:
        return self.mass_low + self.mass_high

    def draw(self, rng: np.random.Generator) -> float:
        t = self.temperature
        p_low = self.mass_low / (self.mass_low + self.mass_high)
        # Pick the branch once, then reject within it: retrying across
        # branches would re-weight them by their unequal acceptance rates.
        if rng.random() < p_low:
            while True:
                self.proposals += 1
                alpha = self.epsilon * math.exp(self.log_ratio * rng.random())
                if rng.random() < math.exp(-alpha / t):
                    self.accepts += 1
                    return alpha
        while True:
            self.proposals += 1
            alpha = self.split + t * rng.standard_exponential()
            if rng.random() * alpha < self.split:
                self.accepts += 1
                return alpha

    @property
    def acceptance_rate(self) -> float:
        return self.accepts / self.proposals if self.proposals else float("nan")


def sample_alpha_injection(
    temperature: float, epsilon: float, rng: np.random.Generator
) -> float:
    """One-shot draw from the truncated reservoir injection measure."""
    return InjectionSampler(temperature, epsilon).draw(rng)


@dataclass(slots=True)
class ContSimState:
    params: ChainParams
    epsilon: float
    z: list[float]
    time: float
    site_rate: list[float]
    rate_sum: float
    sampler_a: InjectionSampler
    sampler_b: InjectionSampler
    events: int = 0
    events_since_resync: int = 0
    injected_a: float = 0.0
    extracted_a: float = 0.0
    injected_b: float = 0.0
    extracted_b: float = 0.0
    tree: FenwickTree | None = None
    max_resync_drift: float = 0.0
    before_change: Callable[[int, float, float], None] | None = None

    @property
    def inj_rate(self) -> float:
        return self.sampler_a.total_rate + self.sampler_b.total_rate

    @property
    def total_rate(self) -> float:
        return 2.0 * self.rate_sum + self.inj_rate

    def resync(self) -> None:
        eps = self.epsilon
        reset_rates(self, [math.log(v / eps) if v > eps else 0.0 for v in self.z])


def new_state_continuous(
    params: ChainParams, epsilon: float | None = None, z0=None
) -> ContSimState:
    if epsilon is None:
        epsilon = default_epsilon(params)
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if z0 is None:
        z = [0.0] * params.n
    else:
        z = [float(v) for v in z0]
        if len(z) != params.n or any(v < 0.0 for v in z):
            raise ValueError("z0 must hold n non-negative energies")
    site_rate = [math.log(v / epsilon) if v > epsilon else 0.0 for v in z]
    return ContSimState(
        params=params,
        epsilon=epsilon,
        z=z,
        time=0.0,
        site_rate=site_rate,
        rate_sum=math.fsum(site_rate),
        sampler_a=InjectionSampler(params.t_a, epsilon),
        sampler_b=InjectionSampler(params.t_b, epsilon),
        tree=(FenwickTree([2.0 * r for r in site_rate])
              if params.n > LINEAR_SCAN_MAX_SITES else None),
    )


def _update_site_energy(state: ContSimState, x: int, new_z: float) -> None:
    if state.before_change is not None:
        state.before_change(x, state.time, new_z)
    state.z[x] = new_z
    eps = state.epsilon
    # Recomputed from scratch: the rate varies continuously with z, so
    # incremental updates would accumulate drift.
    new_rate = math.log(new_z / eps) if new_z > eps else 0.0
    delta = new_rate - state.site_rate[x]
    state.site_rate[x] = new_rate
    state.rate_sum += delta
    if state.tree is not None:
        state.tree.add(x, 2.0 * delta)


def _jump_continuous(state: ContSimState, rng: np.random.Generator) -> None:
    n = state.params.n
    rate_a = state.sampler_a.total_rate
    rate_b = state.sampler_b.total_rate
    u = rng.random() * state.total_rate
    if u < rate_a:
        alpha = state.sampler_a.draw(rng)
        _update_site_energy(state, 0, state.z[0] + alpha)
        state.injected_a += alpha
        return
    u -= rate_a
    if u < rate_b:
        alpha = state.sampler_b.draw(rng)
        _update_site_energy(state, n - 1, state.z[n - 1] + alpha)
        state.injected_b += alpha
        return
    u -= rate_b
    x, u = select_site(state.site_rate, state.tree, u)
    to = x - 1 if u < state.site_rate[x] else x + 1
    zx = state.z[x]
    if not zx > state.epsilon:
        raise RuntimeError(f"removal channel selected at drained site {x}")
    alpha = sample_alpha_removal(zx, state.epsilon, rng)
    _update_site_energy(state, x, zx - alpha)
    if to < 0:
        state.extracted_a += alpha
    elif to == n:
        state.extracted_b += alpha
    else:
        _update_site_energy(state, to, state.z[to] + alpha)


def step_continuous(state: ContSimState, rng: np.random.Generator) -> float:
    """Advance one event; returns the holding time spent in the old state."""
    dt = rng.standard_exponential() / state.total_rate
    state.time += dt
    _jump_continuous(state, rng)
    state.events += 1
    state.events_since_resync += 1
    if state.events_since_resync >= RESYNC_INTERVAL:
        state.resync()
    return dt


def simulate_continuous(
    params: ChainParams,
    t_max: float,
    epsilon: float | None = None,
    burn_in: float | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    z0=None,
    grid_samples: int = DEFAULT_GRID_SAMPLES,
    observers=(),
) -> OccupationStats:
    """Run one energy trajectory; see ``discrete_sim.simulate`` for semantics.

    Histograms use log-spaced bins (exponential marginals span decades); the
    cutoff actually used is recorded in ``extra`` along with the injection
    samplers' acceptance rates, whose collapse would flag a bad cutoff choice.
    """
    if rng is None:
        rng = make_rng(0 if seed is None else seed)
    state = new_state_continuous(params, epsilon, z0)
    start_mass = math.fsum(state.z)
    hists = [BinnedHistogram(10.0 * state.epsilon, 50.0 * params.t_b, HIST_BINS)
             for _ in range(params.n)]
    stats = run_window(state, state.z, _jump_continuous, state.inj_rate, rng, hists,
                       "continuous", t_max, burn_in, grid_samples, observers,
                       RESYNC_INTERVAL)
    stats.extra.update(epsilon=state.epsilon, final_z=list(state.z),
                       acceptance_a=state.sampler_a.acceptance_rate,
                       acceptance_b=state.sampler_b.acceptance_rate)
    stats.check_run(start_mass, state.z, 1e-9)
    return stats
