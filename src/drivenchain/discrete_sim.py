"""Event-driven simulator for the boundary-driven particle chain.

Every site has two exit channels (toward each neighbour, or into the adjacent
reservoir at the ends), each firing at total rate H(eta_x) = sum_{k<=eta_x} 1/k
and moving a batch of k particles with probability (1/k)/H(eta_x).  The two
reservoirs inject batches of k particles at rate beta^k / k, i.e. a constant
total rate -log(1-beta) with logarithmically distributed batch sizes.  The
chain is simulated exactly: exponential holding times at the total rate,
channels picked proportionally to their rates.

Occupation statistics come from ``occupation.run_window``: O(n) work per
changed site (at most two per event).  A run fails with RuntimeError on
rate-cache drift past ``core.RESYNC_DRIFT_TOL``, on particle counts that do
not balance the boundary fluxes exactly, or on a negative occupation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ChainParams,
    FenwickTree,
    HARMONIC_CACHE_LIMIT,
    harmonic_number,
    harmonic_prefix,
    make_rng,
    reset_rates,
    select_site,
)
from .occupation import IntHistogram, OccupationStats, run_window

__all__ = [
    "SimState",
    "new_state",
    "step",
    "simulate",
    "sample_k_harmonic",
    "sample_k_logarithmic",
]

LINEAR_SCAN_MAX_SITES = 64
RESYNC_INTERVAL = 1_000_000
DEFAULT_GRID_SAMPLES = 1 << 16

# Plain-list mirror of the harmonic prefix sums: python floats index faster
# than numpy scalars in the per-event path.
_hl: list[float] = harmonic_prefix(1024).tolist()


def _prefix_list(n: int) -> list[float]:
    global _hl
    if n >= len(_hl):
        _hl = harmonic_prefix(min(max(n, 2 * len(_hl)), HARMONIC_CACHE_LIMIT)).tolist()
    return _hl


def sample_k_harmonic(n: int, rng: np.random.Generator) -> int:
    """Batch size k in 1..n with probability (1/k) / H(n).

    Inverse CDF over the cached harmonic prefix sums: a short forward scan
    for small occupations (the expected batch n/H(n) keeps it a few steps),
    bisection for large ones, and bisection on the asymptotic form beyond the
    cache (unreachable in any realistic run, but the sampler should not care).
    """
    if n < 1:
        raise ValueError(f"sample_k_harmonic needs n >= 1, got {n}")
    if n == 1:
        return 1
    if n <= HARMONIC_CACHE_LIMIT:
        pref = _prefix_list(n)
        u = rng.random() * pref[n]
        if n <= 64:
            k = 1
            while k < n and pref[k] <= u:
                k += 1
            return k
        return min(bisect_right(pref, u, 1, n + 1), n)
    u = rng.random() * harmonic_number(n)
    lo, hi = 1, n  # smallest k with H(k) > u
    while lo < hi:
        mid = (lo + hi) // 2
        if harmonic_number(mid) > u:
            hi = mid
        else:
            lo = mid + 1
    return lo


def sample_k_logarithmic(beta: float, rng: np.random.Generator) -> int:
    """Batch size k >= 1 with probability beta^k / (k * -log(1-beta)).

    Chop-down inversion of the logarithmic series; expected work is O(1) for
    beta bounded away from 1.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"sample_k_logarithmic needs 0 < beta < 1, got {beta}")
    target = rng.random() * (-math.log1p(-beta))
    acc = 0.0
    pw = 1.0
    k = 0
    while True:
        k += 1
        pw *= beta
        term = pw / k
        acc += term
        if acc > target or term < 1e-300:
            return k


@dataclass(slots=True)
class SimState:
    """Mutable simulator state with cached channel rates.

    ``site_rate[x]`` holds H(eta_x), the rate of each of site x's two exit
    channels; ``rate_sum`` tracks their sum incrementally and is refreshed
    from scratch every RESYNC_INTERVAL events (see ``core.reset_rates``).
    ``before_change(x, time, new)``, when set, runs just before site x
    takes the value ``new``.
    """

    params: ChainParams
    eta: list[int]
    time: float
    site_rate: list[float]
    rate_sum: float
    lam_a: float
    lam_b: float
    events: int = 0
    events_since_resync: int = 0
    injected_a: int = 0
    extracted_a: int = 0
    injected_b: int = 0
    extracted_b: int = 0
    tree: FenwickTree | None = None
    max_resync_drift: float = 0.0
    before_change: Callable[[int, float, float], None] | None = None

    @property
    def total_rate(self) -> float:
        return 2.0 * self.rate_sum + self.lam_a + self.lam_b

    def resync(self) -> None:
        reset_rates(self, [harmonic_number(e) for e in self.eta])


def new_state(params: ChainParams, eta0=None) -> SimState:
    if eta0 is None:
        eta = [0] * params.n
    else:
        eta = [int(v) for v in eta0]
        if len(eta) != params.n or any(v < 0 for v in eta):
            raise ValueError("eta0 must hold n non-negative integers")
    site_rate = [harmonic_number(e) for e in eta]
    return SimState(
        params=params,
        eta=eta,
        time=0.0,
        site_rate=site_rate,
        rate_sum=math.fsum(site_rate),
        lam_a=-math.log1p(-params.beta_a),
        lam_b=-math.log1p(-params.beta_b),
        tree=(FenwickTree([2.0 * r for r in site_rate])
              if params.n > LINEAR_SCAN_MAX_SITES else None),
    )


def _update_site(state: SimState, x: int, new_eta: int) -> None:
    if state.before_change is not None:
        state.before_change(x, state.time, new_eta)
    state.eta[x] = new_eta
    if new_eta <= HARMONIC_CACHE_LIMIT:
        pref = _hl
        new_rate = pref[new_eta] if new_eta < len(pref) else _prefix_list(new_eta)[new_eta]
    else:
        new_rate = harmonic_number(new_eta)
    delta = new_rate - state.site_rate[x]
    state.site_rate[x] = new_rate
    state.rate_sum += delta
    if state.tree is not None:
        state.tree.add(x, 2.0 * delta)


def _jump(state: SimState, rng: np.random.Generator) -> None:
    """Select one channel proportionally to its rate and execute it."""
    p = state.params
    n = p.n
    u = rng.random() * state.total_rate
    if u < state.lam_a:
        k = sample_k_logarithmic(p.beta_a, rng)
        _update_site(state, 0, state.eta[0] + k)
        state.injected_a += k
        return
    u -= state.lam_a
    if u < state.lam_b:
        k = sample_k_logarithmic(p.beta_b, rng)
        _update_site(state, n - 1, state.eta[n - 1] + k)
        state.injected_b += k
        return
    u -= state.lam_b
    # Removal channels: two per site, each at rate site_rate[x].
    x, u = select_site(state.site_rate, state.tree, u)
    to = x - 1 if u < state.site_rate[x] else x + 1
    occ = state.eta[x]
    if occ < 1:
        raise RuntimeError(f"removal channel selected at empty site {x}")
    k = sample_k_harmonic(occ, rng)
    _update_site(state, x, occ - k)
    if to < 0:
        state.extracted_a += k
    elif to == n:
        state.extracted_b += k
    else:
        _update_site(state, to, state.eta[to] + k)


def step(state: SimState, rng: np.random.Generator) -> float:
    """Advance by one event; returns the holding time spent in the old state."""
    dt = rng.standard_exponential() / state.total_rate
    state.time += dt
    _jump(state, rng)
    state.events += 1
    state.events_since_resync += 1
    if state.events_since_resync >= RESYNC_INTERVAL:
        state.resync()
    return dt


def simulate(
    params: ChainParams,
    t_max: float,
    burn_in: float | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    eta0=None,
    grid_samples: int = DEFAULT_GRID_SAMPLES,
    observers=(),
) -> OccupationStats:
    """Run one trajectory until t_max and accumulate occupation statistics.

    Statistics are weighted by holding time (the occupation measure is a time
    average) over [burn_in, t_max] (burn_in defaults to 10% of t_max); see
    ``occupation.run_window`` for the accumulation, the ``grid_samples``
    series and the ``observers``.
    """
    if rng is None:
        rng = make_rng(0 if seed is None else seed)
    state = new_state(params, eta0)
    start_mass = sum(state.eta)
    stats = run_window(state, state.eta, _jump, state.lam_a + state.lam_b, rng,
                       [IntHistogram() for _ in range(params.n)], "discrete",
                       t_max, burn_in, grid_samples, observers, RESYNC_INTERVAL)
    stats.extra["final_eta"] = list(state.eta)
    stats.check_run(start_mass, state.eta, 0.0)
    return stats
