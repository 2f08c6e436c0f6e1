"""Particle chain: harmonic batch samplers and the ``simulate`` entry point.

Every site has two exit channels (toward each neighbour, or into the adjacent
reservoir at the ends), each firing at total rate H(eta_x) = sum_{k<=eta_x} 1/k
and moving a batch of k particles with probability (1/k)/H(eta_x).  The two
reservoirs inject batches of k particles at rate beta^k / k, i.e. a constant
total rate -log(1-beta) with logarithmically distributed batch sizes.  The
chain is simulated exactly by the shared event engine, ``occupation.run_window``,
one loop that runs the dynamics in local variables: exponential holding
times at the total rate, channels picked proportionally to their rates, and
a log of (site, time, new value) per changed site (at most two per event).
One numpy flush per block of that log derives every statistic (moments,
histograms, the grid series, the observer calls) with the float sums of a
per-site loop, so the results do not depend on the block.  ``new_state``
adds only the particle model, count histograms, the rate function H and the
samplers below.  A run fails with RuntimeError on a removal picked at an
empty site, on rate-cache drift past ``occupation.RESYNC_DRIFT_TOL``, on
particle counts that do not balance the boundary fluxes exactly, or on a
negative occupation.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .core import ChainParams, harmonic_number, harmonic_prefix, make_rng
from .measure import Model
from .occupation import (DEFAULT_GRID_SAMPLES, BlockDraws, ChainState, IntHistogram,
                         OccupationStats, initial_values, run_window)

__all__ = [
    "LogSeriesSampler",
    "new_state",
    "simulate",
    "sample_k_harmonic",
]


def sample_k_harmonic(n: int, rng: BlockDraws) -> int:
    """Batch size k in 1..n with probability (1/k) / H(n).

    Inverse CDF over the cached harmonic prefix sums: a short forward scan
    for small occupations (the expected batch n/H(n) keeps it a few steps),
    bisection for large ones.  ValueError past ``HARMONIC_CACHE_LIMIT``.
    """
    if n < 1:
        raise ValueError(f"sample_k_harmonic needs n >= 1, got {n}")
    if n == 1:
        return 1
    pref = harmonic_prefix(n)
    u = rng.random() * pref[n]
    if n <= 64:
        k = 1
        while k < n and pref[k] <= u:
            k += 1
        return k
    return min(bisect_right(pref, u, 1, n + 1), n)


class LogSeriesSampler:
    """Reservoir injections: batches of k >= 1 particles at rate beta^k / k.

    The total rate is -log(1-beta) and a batch size has the logarithmic
    series law beta^k / (k * -log(1-beta)), drawn by chop-down inversion;
    expected work is O(1) for beta bounded away from 1.
    """

    __slots__ = ("beta", "total_rate")

    def __init__(self, beta: float) -> None:
        if not 0.0 < beta < 1.0:
            raise ValueError(f"LogSeriesSampler needs 0 < beta < 1, got {beta}")
        self.beta = beta
        self.total_rate = -math.log1p(-beta)

    def draw(self, rng: BlockDraws) -> int:
        target = rng.random() * self.total_rate
        beta = self.beta
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


def new_state(params: ChainParams, eta0=None) -> ChainState:
    """Particle-chain state: empty, or started from the counts ``eta0``."""
    return ChainState(Model.DISCRETE, IntHistogram,
                      initial_values(params.n, eta0, Model.DISCRETE), harmonic_number, 0,
                      sample_k_harmonic, LogSeriesSampler(params.beta_a),
                      LogSeriesSampler(params.beta_b))


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
    ``occupation.run_window`` for the accumulation and the ``grid_samples``
    series.  Each of ``observers`` is called as observer(t, values) at every
    grid time t the run reaches, in order, with a list copy of the state
    there.  The calls come in bursts, from the block flushes, after the run
    has moved on, so an observer cannot alter the run.
    """
    if rng is None:
        rng = make_rng(0 if seed is None else seed)
    state = new_state(params, eta0)
    stats = run_window(state, rng, t_max, burn_in, grid_samples, observers)
    stats.extra["final_eta"] = list(state.values)
    return stats
