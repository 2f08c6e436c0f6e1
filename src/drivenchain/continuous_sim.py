"""Energy chain: cutoff jump samplers and the ``simulate_continuous`` entry point.

The energy model moves an amount alpha of energy across an edge at rate
d(alpha)/alpha, so its jump activity diverges at small alpha: there is no
first jump.  The simulator truncates every jump measure below a cutoff
``epsilon``: removal/bulk channels at site x then fire at total rate
log(z_x/epsilon) (zero once z_x <= epsilon) and the reservoir at temperature T
injects at rate E1(epsilon/T).  The discarded small-jump drift from
injections and removals nearly cancels.  Nothing bounds the bias that is
left; acceptance criterion 6 probes it by rerunning at half the cutoff (its
cutoff-refinement check), and it is not corrected.

The chain runs on the shared event engine, ``occupation.run_window``, as in
``discrete_sim``: a loop that does the dynamics and logs each changed site,
and a block flush that derives every statistic from the log, energy
histogram bins included.  ``new_state_continuous`` fixes what it adds: its model, its
log-binned energy histograms, its rate function, its cutoff as the engine's
removal floor, and the samplers below.  A run fails with RuntimeError on a
removal picked at a site at or below the cutoff, on rate-cache drift past
``occupation.RESYNC_DRIFT_TOL``, on an energy balance off by more than
``occupation.MASS_TOL`` relative, or on a negative energy.

The injection rate E1 comes from ``scipy.special.exp1``, imported by the
first ``InjectionSampler``: importing this module does not load
``scipy.special``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import ChainParams, make_rng
from .measure import Model
from .occupation import (DEFAULT_GRID_SAMPLES, BinnedHistogram, BlockDraws, ChainState,
                         OccupationStats, initial_values, run_window)

__all__ = [
    "InjectionSampler",
    "new_state_continuous",
    "simulate_continuous",
    "sample_alpha_removal",
    "default_epsilon",
    "check_epsilon",
]


def default_epsilon(params: ChainParams) -> float:
    return 1e-6 * min(params.t_a, 1.0)


def check_epsilon(epsilon: float, t_b: float, name: str = "epsilon") -> None:
    """ValueError, calling the cutoff ``name``, unless it is finite, > 0 and
    below 5 T_B: a run's site histograms bin (10 epsilon, 50 T_B]."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {epsilon}")
    if not 10.0 * epsilon < 50.0 * t_b:
        raise ValueError(f"{name} = {epsilon} must be below 5 T_B = {5.0 * t_b}: the site "
                         f"histograms bin (10 epsilon, 50 T_B] = ({10.0 * epsilon}, {50.0 * t_b}]")


def sample_alpha_removal(epsilon: float, z: float, rng: BlockDraws) -> float:
    """Jump size with density 1/(alpha log(z/eps)) on [eps, z], z > eps, by exact inversion."""
    alpha = epsilon * (z / epsilon) ** rng.random()
    return alpha if alpha < z else z


class InjectionSampler:
    """Draws jump sizes with density proportional to exp(-a/T)/a on [eps, inf).

    Mixture rejection with split point s = max(eps, T): below s, propose from
    1/a by inversion and accept with exp(-a/T) (at least e^{-1} there); above
    s, propose s plus an Exponential(T) overshoot and accept with s/a.  Branch
    masses come from the exponential integral, so the mixture is exact; their
    sum ``total_rate`` is the reservoir's injection rate.
    """

    __slots__ = ("temperature", "epsilon", "split", "mass_low", "mass_high",
                 "total_rate", "log_ratio", "proposals", "accepts")

    def __init__(self, temperature: float, epsilon: float) -> None:
        if temperature <= 0.0 or epsilon <= 0.0:
            raise ValueError("need temperature > 0 and epsilon > 0")
        from scipy.special import exp1

        self.temperature = temperature
        self.epsilon = epsilon
        self.split = max(epsilon, temperature)
        self.mass_high = float(exp1(self.split / temperature))
        if epsilon < self.split:
            self.mass_low = float(exp1(epsilon / temperature)) - self.mass_high
            self.log_ratio = math.log(self.split / epsilon)
        else:
            self.mass_low = 0.0
            self.log_ratio = 0.0
        self.total_rate = self.mass_low + self.mass_high
        self.proposals = 0
        self.accepts = 0

    def draw(self, rng: BlockDraws) -> float:
        t = self.temperature
        p_low = self.mass_low / self.total_rate
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


def new_state_continuous(
    params: ChainParams, epsilon: float | None = None, z0=None
) -> ChainState:
    """Energy-chain state with cutoff ``epsilon``: drained, or started from ``z0``;
    a run's site histograms have 256 log-spaced bins on (10 eps, 50 T_B], so
    the cutoff must lie below 5 T_B (see :func:`check_epsilon`)."""
    if epsilon is None:
        epsilon = default_epsilon(params)
    check_epsilon(epsilon, params.t_b)
    return ChainState(
        Model.CONTINUOUS,
        functools.partial(BinnedHistogram, 10.0 * epsilon, 50.0 * params.t_b, 256),
        initial_values(params.n, z0, Model.CONTINUOUS),
        lambda z: math.log(z / epsilon) if z > epsilon else 0.0,
        epsilon,
        functools.partial(sample_alpha_removal, epsilon),
        InjectionSampler(params.t_a, epsilon),
        InjectionSampler(params.t_b, epsilon),
    )


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
    """Run one energy trajectory; see ``discrete_sim.simulate`` for semantics,
    the ``observers`` included: they get a list copy of the state at each
    grid time, from the block flushes, and cannot alter the run.

    Histograms use log-spaced bins (exponential marginals span decades); the
    cutoff actually used is recorded in ``extra`` along with the injection
    samplers' acceptance rates, whose collapse would flag a bad cutoff choice.
    """
    if rng is None:
        rng = make_rng(0 if seed is None else seed)
    state = new_state_continuous(params, epsilon, z0)
    stats = run_window(state, rng, t_max, burn_in, grid_samples, observers)
    stats.extra.update(epsilon=state.floor, final_z=list(state.values))
    return stats
