"""The event engine of both chains and their time-weighted trajectory statistics.

Both chains are one boundary-driven dynamics, held by one ``ChainState``; a
chain supplies only its site-rate function, the value at or below which a
site cannot fire, a removal sampler and two injection samplers.  ``_jump``
executes one event through ``_update_site``, which keeps the rate cache current.

A trajectory is piecewise constant, so the occupation measure weights each
visited configuration by its holding time.  ``OccupationStats`` holds per-site
value histograms, first and second moment integrals, boundary flux totals,
and a regularly spaced sample of the trajectory (used downstream to estimate
autocorrelation times).  Replica results merge by plain summation, which
makes R merged replicas identical to one run of the concatenated duration
for every reported moment.

``run_window`` drives a ``ChainState`` and fills the moments through a
``LazyAccumulator``.  An event changes at most two sites, so rather than
weighting all n sites after every holding interval (O(n^2) per event) it
closes a site's interval only when that site changes: O(n) per change.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .core import FenwickTree, reset_rates, select_site

__all__ = ["IntHistogram", "BinnedHistogram", "OccupationStats", "LazyAccumulator",
           "ChainState", "initial_values", "run_window", "DEFAULT_GRID_SAMPLES"]

RESYNC_INTERVAL = 1_000_000  # events between rate-cache refreshes
LINEAR_SCAN_MAX_SITES = 64  # larger chains pick channels by Fenwick search
DEFAULT_GRID_SAMPLES = 1 << 16  # trajectory series points per run


class IntHistogram:
    """Holding-time weights per non-negative integer value."""

    __slots__ = ("weights",)

    def __init__(self) -> None:
        self.weights: list[float] = []

    def add(self, value: int, w: float) -> None:
        ws = self.weights
        if value >= len(ws):
            ws.extend([0.0] * (value + 1 - len(ws)))
        ws[value] += w

    def merge(self, other: "IntHistogram") -> None:
        if len(other.weights) > len(self.weights):
            self.weights.extend([0.0] * (len(other.weights) - len(self.weights)))
        for v, w in enumerate(other.weights):
            self.weights[v] += w

    def total(self) -> float:
        return float(sum(self.weights))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.arange(len(self.weights)), np.asarray(self.weights)


class BinnedHistogram:
    """Log-spaced bins on (lo, hi] plus underflow and overflow slots.

    Exponential-tailed marginals put most mass across several decades, so
    uniform-in-log bins keep resolution where it matters; the bin index is
    arithmetic in log(value), no search needed.
    """

    __slots__ = ("lo", "hi", "n_bins", "_log_lo", "_dlog", "weights")

    def __init__(self, lo: float, hi: float, n_bins: int = 256) -> None:
        if not (0.0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        self.lo = lo
        self.hi = hi
        self.n_bins = n_bins
        self._log_lo = math.log(lo)
        self._dlog = (math.log(hi) - self._log_lo) / n_bins
        self.weights = [0.0] * (n_bins + 2)  # [under, bins..., over]

    def add(self, value: float, w: float) -> None:
        if value <= self.lo:
            self.weights[0] += w
        elif value > self.hi:
            self.weights[-1] += w
        else:
            idx = int((math.log(value) - self._log_lo) / self._dlog)
            self.weights[min(idx, self.n_bins - 1) + 1] += w

    def merge(self, other: "BinnedHistogram") -> None:
        if (other.lo, other.hi, other.n_bins) != (self.lo, self.hi, self.n_bins):
            raise ValueError("cannot merge histograms with different binning")
        for i, w in enumerate(other.weights):
            self.weights[i] += w

    def total(self) -> float:
        return float(sum(self.weights))

    def edges(self) -> np.ndarray:
        return np.exp(self._log_lo + self._dlog * np.arange(self.n_bins + 1))


# ``extra`` entries that describe one trajectory: a merge lists them per replica.
PER_REPLICA_EXTRA = ("final_eta", "final_z", "acceptance_a", "acceptance_b")


@dataclass
class OccupationStats:
    """Mergeable time-weighted statistics of one or more trajectories.

    ``replicas`` counts the merged trajectories; ``extra`` carries run
    settings and diagnostics (see ``merge`` for how they combine).
    """

    n_sites: int
    model: str
    duration: float = 0.0
    event_count: int = 0
    mean_acc: np.ndarray = field(default_factory=lambda: np.zeros(0))
    second_acc: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    hists: list = field(default_factory=list)
    series: list[np.ndarray] = field(default_factory=list)
    series_dt: float = 0.0
    injected_a: float = 0.0
    extracted_a: float = 0.0
    injected_b: float = 0.0
    extracted_b: float = 0.0
    wall_seconds: float = 0.0
    extra: dict = field(default_factory=dict)
    replicas: int = 1

    def mean(self) -> np.ndarray:
        return self.mean_acc / self.duration

    def cov(self) -> np.ndarray:
        mu = self.mean()
        return self.second_acc / self.duration - np.outer(mu, mu)

    def check_run(self, start_mass: float, final, tol: float) -> None:
        """Raise RuntimeError unless a finished run kept its invariants.

        Mass balance: injected - extracted equals the mass gained from
        ``start_mass`` to the ``final`` state, within ``tol`` relative to the
        mass brought in.  Non-negativity: of the final state and mean_acc.
        """
        net = self.injected_a + self.injected_b - self.extracted_a - self.extracted_b
        gained = math.fsum(final) - start_mass
        if abs(net - gained) > tol * max(1.0, start_mass + self.injected_a + self.injected_b):
            raise RuntimeError(f"mass balance broken: injected - extracted = {net!r}, "
                               f"mass gained = {gained!r}")
        if min(final) < 0 or np.any(self.mean_acc < 0):
            raise RuntimeError("negative occupation in the final state or mean accumulator")

    def merge(self, other: "OccupationStats") -> "OccupationStats":
        """Sum accumulators of two independent runs (associative).

        ``extra`` keeps self's run settings, lists the per-trajectory entries
        of ``PER_REPLICA_EXTRA`` replica by replica and takes the largest
        ``max_resync_drift``.
        """
        if (self.n_sites, self.model) != (other.n_sites, other.model):
            raise ValueError("cannot merge stats from different chains")
        if self.series and other.series and self.series_dt != other.series_dt:
            raise ValueError("cannot merge stats with different series spacing")
        out = OccupationStats(
            n_sites=self.n_sites,
            model=self.model,
            duration=self.duration + other.duration,
            event_count=self.event_count + other.event_count,
            mean_acc=self.mean_acc + other.mean_acc,
            second_acc=self.second_acc + other.second_acc,
            hists=copy.deepcopy(self.hists),
            series=list(self.series) + list(other.series),
            series_dt=self.series_dt or other.series_dt,
            injected_a=self.injected_a + other.injected_a,
            extracted_a=self.extracted_a + other.extracted_a,
            injected_b=self.injected_b + other.injected_b,
            extracted_b=self.extracted_b + other.extracted_b,
            wall_seconds=self.wall_seconds + other.wall_seconds,
            extra=self._merged_extra(other),
            replicas=self.replicas + other.replicas,
        )
        for mine, theirs in zip(out.hists, other.hists):
            mine.merge(theirs)
        return out

    def per_replica(self, key: str) -> list:
        """A ``PER_REPLICA_EXTRA`` entry as a list with one value per trajectory."""
        return self.extra[key] if self.replicas > 1 else [self.extra[key]]

    def _merged_extra(self, other: "OccupationStats") -> dict:
        """Run settings from self; per-replica values as one list entry per replica."""
        out = {k: v for k, v in self.extra.items() if k not in PER_REPLICA_EXTRA}
        for key in PER_REPLICA_EXTRA:
            if key in self.extra and key in other.extra:
                out[key] = self.per_replica(key) + other.per_replica(key)
        if "max_resync_drift" in other.extra:
            out["max_resync_drift"] = max(self.extra.get("max_resync_drift", 0.0),
                                          other.extra["max_resync_drift"])
        return out


class LazyAccumulator:
    """Flush-on-change accumulator of time-weighted occupation moments.

    Reads the simulator's live value list (no copy).  Per site x it keeps the
    time ``last[x]`` of its last change, the running integral
    I_x(c) = int_start^c eta_x dt as I_x(c) = offset[x] + eta_x * c (exact
    while eta_x holds), and row x of int eta_x eta_y dt.  Summed by parts
    over x's holding intervals, a change of x from ``old`` to ``new`` at
    time c adds (old - new) * I_y(c) to row x, and the window's end adds
    eta_x * I_y(end).  The rows are symmetric up to rounding; ``finish``
    averages them with their transpose.
    """

    __slots__ = ("values", "hists", "start", "sites", "last", "offset", "rows")

    def __init__(self, values: list, hists: list, start: float) -> None:
        n = len(values)
        self.values = values
        self.hists = hists
        self.start = start
        self.sites = range(n)
        self.last = [start] * n
        self.offset = [-v * start for v in values]
        self.rows = [[0.0] * n for _ in range(n)]

    def change(self, x: int, c: float, new) -> None:
        """Site x is about to take value ``new`` at time c: one O(n) pass over row x.

        At or before ``start`` it only resets offset[x]: the window opens on ``new``.
        """
        start = self.start
        if c <= start:
            self.offset[x] = -new * start
            return
        vals = self.values
        off = self.offset
        row = self.rows[x]
        old = vals[x]
        step = old - new
        for y in self.sites:  # in place: faster than a comprehension at small n
            row[y] += step * (off[y] + vals[y] * c)
        off[x] += step * c
        last = self.last
        w = c - last[x]
        if w > 0.0:
            self.hists[x].add(old, w)
            last[x] = c

    def finish(self, t_end: float) -> tuple[np.ndarray, np.ndarray]:
        """Close every site at t_end; returns (mean_acc, second_acc)."""
        vals = self.values
        totals = [a + v * t_end for a, v in zip(self.offset, vals)]
        for x, v in enumerate(vals):
            if t_end > self.last[x]:
                self.hists[x].add(v, t_end - self.last[x])
        rows = np.array(self.rows) + np.outer(vals, totals)
        return np.array(totals), 0.5 * (rows + rows.T)


def initial_values(n: int, start, cast) -> list:
    """n zeros, or ``start`` cast site by site; ValueError unless n non-negative values."""
    values = [cast(0)] * n if start is None else [cast(v) for v in start]
    if len(values) != n or any(v < 0 for v in values):
        raise ValueError(f"a start state must hold {n} non-negative values")
    return values


@dataclass(slots=True)
class ChainState:
    """Live state of either chain, with cached channel rates.

    Site x holds ``values[x]`` and fires each of its two exit channels at
    rate ``rate_of(values[x])``, which is zero at or below ``floor``; a
    firing moves ``remove(values[x], rng)`` across.  Reservoir A (B) injects
    ``sampler_a.draw(rng)`` into the first (last) site at rate
    ``sampler_a.total_rate``.  ``site_rate`` caches the site rates and
    ``rate_sum`` their incrementally updated sum, refreshed from scratch
    every RESYNC_INTERVAL events and at the end of a run (see
    ``core.reset_rates``).
    ``before_change(x, time, new)`` runs just before site x takes ``new``.
    """

    values: list
    rate_of: Callable[[Any], float]
    floor: float
    remove: Callable[[Any, np.random.Generator], Any]
    sampler_a: Any
    sampler_b: Any
    site_rate: list[float] = field(init=False)
    rate_sum: float = field(init=False)
    inj_rate: float = field(init=False)
    tree: FenwickTree | None = field(init=False)
    time: float = 0.0
    events: int = 0
    injected_a: Any = 0
    extracted_a: Any = 0
    injected_b: Any = 0
    extracted_b: Any = 0
    max_resync_drift: float = 0.0
    before_change: Callable[[int, float, Any], None] | None = None

    def __post_init__(self) -> None:
        self.site_rate = [self.rate_of(v) for v in self.values]
        self.rate_sum = math.fsum(self.site_rate)
        self.inj_rate = self.sampler_a.total_rate + self.sampler_b.total_rate
        self.tree = (FenwickTree([2.0 * r for r in self.site_rate])
                     if len(self.values) > LINEAR_SCAN_MAX_SITES else None)

    @property
    def total_rate(self) -> float:
        return 2.0 * self.rate_sum + self.inj_rate

    def resync(self) -> None:
        reset_rates(self, [self.rate_of(v) for v in self.values])


def _update_site(state: ChainState, x: int, new) -> None:
    state.before_change(x, state.time, new)
    state.values[x] = new
    rate = state.rate_of(new)
    delta = rate - state.site_rate[x]
    state.site_rate[x] = rate
    state.rate_sum += delta
    if state.tree is not None:
        state.tree.add(x, 2.0 * delta)


def _jump(state: ChainState, rng: np.random.Generator) -> None:
    """Select one channel proportionally to its rate and execute it."""
    values = state.values
    rate_a = state.sampler_a.total_rate
    rate_b = state.sampler_b.total_rate
    u = rng.random() * state.total_rate
    if u < rate_a:
        amount = state.sampler_a.draw(rng)
        _update_site(state, 0, values[0] + amount)
        state.injected_a += amount
        return
    u -= rate_a
    last = len(values) - 1
    if u < rate_b:
        amount = state.sampler_b.draw(rng)
        _update_site(state, last, values[last] + amount)
        state.injected_b += amount
        return
    u -= rate_b
    # Removal channels: two per site, each at rate site_rate[x].
    x, u = select_site(state.site_rate, state.tree, u)
    to = x - 1 if u < state.site_rate[x] else x + 1
    held = values[x]
    if not held > state.floor:
        raise RuntimeError(f"removal channel selected at site {x} holding {held!r}")
    amount = state.remove(held, rng)
    _update_site(state, x, held - amount)
    if to < 0:
        state.extracted_a += amount
    elif to > last:
        state.extracted_b += amount
    else:
        _update_site(state, to, values[to] + amount)


def run_window(state: ChainState, rng, hists: list, model: str, t_max: float,
               burn_in: float | None, grid_samples: int, observers,
               mass_tol: float) -> OccupationStats:
    """Run a chain state to t_max and measure it over [burn_in, t_max].

    Holding times are exponential at the state's total rate; each event is
    one ``_jump``, and the rate cache resyncs every RESYNC_INTERVAL events
    and once more at the end, so ``max_resync_drift`` covers every run.
    A ``LazyAccumulator`` on ``state.before_change`` fills the moments and
    ``hists``.  burn_in defaults to 10% of t_max.  The trajectory is also
    sampled on a uniform grid of ``grid_samples`` points across the window
    (an evenly spaced series for autocorrelation estimates), each point
    passed to every ``observers`` callable as (time, values).  The run fails
    with RuntimeError unless injected - extracted matches the mass gained
    within ``mass_tol`` (relative) and every value stays non-negative.
    """
    if burn_in is None:
        burn_in = 0.1 * t_max
    if not t_max > burn_in >= 0.0:
        raise ValueError(f"need t_max > burn_in >= 0, got ({t_max}, {burn_in})")
    values = state.values
    start_mass = math.fsum(values)
    acc = LazyAccumulator(values, hists, burn_in)
    state.before_change = acc.change
    series = np.empty((grid_samples, len(values)),
                      dtype=np.int64 if model == "discrete" else np.float64)
    grid_dt = (t_max - burn_in) / grid_samples
    next_grid = 0
    rexp = rng.standard_exponential
    jump = _jump
    resync_interval = RESYNC_INTERVAL
    inj_rate = state.inj_rate
    wall_start = time.perf_counter()
    t = 0.0
    while True:
        dt = rexp() / (2.0 * state.rate_sum + inj_rate)
        t_new = t + dt
        while next_grid < grid_samples and burn_in + (next_grid + 1) * grid_dt <= t_new:
            series[next_grid] = values
            for obs in observers:
                obs(burn_in + (next_grid + 1) * grid_dt, values)
            next_grid += 1
        if t_new >= t_max:
            break
        state.time = t = t_new
        jump(state, rng)
        state.events += 1
        if state.events % resync_interval == 0:
            state.resync()
    state.resync()  # a run shorter than RESYNC_INTERVAL measures its drift too
    while next_grid < grid_samples:  # float edge at the last grid point
        series[next_grid] = values
        next_grid += 1
    mean_acc, second_acc = acc.finish(t_max)
    wall = time.perf_counter() - wall_start
    stats = OccupationStats(
        n_sites=len(values), model=model, duration=t_max - burn_in,
        event_count=state.events, mean_acc=mean_acc, second_acc=second_acc, hists=hists,
        series=[series], series_dt=grid_dt, wall_seconds=wall,
        injected_a=float(state.injected_a), extracted_a=float(state.extracted_a),
        injected_b=float(state.injected_b), extracted_b=float(state.extracted_b),
        extra={"t_max": t_max, "burn_in": burn_in,
               "max_resync_drift": state.max_resync_drift},
    )
    stats.check_run(start_mass, values, mass_tol)
    return stats
