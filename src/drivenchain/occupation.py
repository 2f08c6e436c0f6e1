"""The event engine of both chains and their time-weighted trajectory statistics.

Both chains are one boundary-driven dynamics, held by one ``ChainState``; a
chain supplies only its ``measure.Model``, the factory of one site's empty
histogram, its site-rate function, the value at or below which a site cannot
fire, a removal sampler and two injection samplers.  So the state fixes all a
run needs of its chain: histograms, series dtype, model and mass tolerance.

A trajectory is piecewise constant, so the occupation measure weights each
visited configuration by its holding time.  ``OccupationStats`` holds per-site
value histograms, first and second moment integrals, boundary flux totals,
and a regularly spaced sample of the trajectory (used downstream to estimate
autocorrelation times).  Replica results merge by plain summation, which
makes R merged replicas identical to one run of the concatenated duration
for every reported moment.

``run_window`` drives a ``ChainState`` in one loop that executes each event
inline (channel choice, site and rate-cache update) in local variables.  The
loop does the dynamics only: after burn_in each changed site logs three
numbers, its index, the time and its new value, and a block flush derives
every statistic of the window from a block of that log in numpy (old values,
running integrals, second-moment rows, holding times, histograms, the grid
series and the observer calls), bit for bit the sums a scalar loop would
make.  An event changes at most two sites, so rather than weighting all n
sites after every holding interval (O(n^2) per event) a flush closes a
site's interval only when that site changes.  Every random number of a run
comes from one ``BlockDraws``, which reads the Generator's uniforms and
exponentials from blocks of DRAW_BLOCK values: a scalar Generator call costs
several times a list read.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Any, Callable

import numpy as np

from .measure import Model

__all__ = ["IntHistogram", "BinnedHistogram", "OccupationStats", "ChainState", "BlockDraws",
           "initial_values", "run_window", "DEFAULT_GRID_SAMPLES"]

RESYNC_INTERVAL = 1_000_000  # events between rate-cache refreshes
RESYNC_DRIFT_TOL = 1e-9  # largest relative rate-cache drift a resync accepts
DEFAULT_GRID_SAMPLES = 1 << 16  # trajectory series points per run
CHANNELS = ("inject_a", "inject_b", "exit_a", "exit_b", "bulk")  # event kinds counted per run
DRAW_BLOCK = 4096  # values a BlockDraws stream takes from its Generator at once
FLUSH_BLOCK_BYTES = 1 << 18  # size of one (changes x n) float array of a row flush
MASS_TOL = 1e-9  # relative mass-balance slip an energy run may show; counts balance exactly


def _blocks(draw: Callable[[int], np.ndarray]):
    """The values of draw(DRAW_BLOCK), draw(DRAW_BLOCK), ... one at a time; a block
    is drawn only when the one before it is used up."""
    return chain.from_iterable(draw(DRAW_BLOCK).tolist() for _ in repeat(None))


class BlockDraws:
    """A Generator's uniforms and standard exponentials, drawn in blocks.

    ``random()`` and ``standard_exponential()`` stand in for the Generator's
    scalar calls.  Each returns the next value of its own stream, which
    draws ``gen.random(DRAW_BLOCK)`` (``gen.standard_exponential(DRAW_BLOCK)``)
    when its last block is used up, so the Generator sees the block draws in
    the order the two streams run out.  Values left in a block when the
    wrapper is dropped are never used.
    """

    __slots__ = ("random", "standard_exponential")

    def __init__(self, gen: np.random.Generator) -> None:
        self.random = _blocks(gen.random).__next__
        self.standard_exponential = _blocks(gen.standard_exponential).__next__


class IntHistogram:
    """Holding-time weights per non-negative integer value, which ``simulate``
    writes to histograms.csv (``compare``'s chi-square counts the series)."""

    __slots__ = ("weights",)

    def __init__(self) -> None:
        self.weights: list[float] = []

    @staticmethod
    def index(values: np.ndarray) -> np.ndarray:
        """The slot of each value (whole numbers, as floats): the value itself."""
        return values.astype(np.intp)

    def merge(self, other: "IntHistogram") -> None:
        if len(other.weights) > len(self.weights):
            self.weights.extend([0.0] * (len(other.weights) - len(self.weights)))
        for v, w in enumerate(other.weights):
            self.weights[v] += w

    def total(self) -> float:
        return float(sum(self.weights))


class BinnedHistogram:
    """Log-spaced bins on (lo, hi] plus underflow and overflow slots.

    Exponential-tailed marginals put most mass across several decades, so
    uniform-in-log bins keep resolution where it matters; the bin index is
    arithmetic in log(value), no search needed.
    """

    __slots__ = ("lo", "hi", "n_bins", "_log_lo", "_dlog", "weights")

    def __init__(self, lo: float, hi: float, n_bins: int) -> None:
        if not (0.0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        self.lo = lo
        self.hi = hi
        self.n_bins = n_bins
        self._log_lo = math.log(lo)
        self._dlog = (math.log(hi) - self._log_lo) / n_bins
        self.weights = [0.0] * (n_bins + 2)  # [under, bins..., over]

    def index(self, values: np.ndarray) -> np.ndarray:
        """The slot of each value: 0 at or below lo, n_bins + 1 above hi, else
        1 + the truncated q = (log(value) - log(lo)) / dlog, at most n_bins,
        with log the scalar ``math.log``.

        ``np.log`` and ``math.log`` differ in the last bits for some inputs,
        and a value on a bin edge would change bins, so q is taken from
        ``np.log`` and recomputed with ``math.log`` wherever its log lies
        within 1e-9 of an edge (q within 1e-9 / dlog of an integer).  That
        covers every value the two logs could split: they differ by a few
        ulps of |log(value)| <= 745, under 1e-12, and the subtraction and
        division round monotonically, so moving log(value) by d moves q by at
        most d / dlog plus an ulp of q.
        """
        inside = (values > self.lo) & (values <= self.hi)
        kept = values[inside]
        q = (np.log(kept) - self._log_lo) / self._dlog
        near = np.abs(q - np.rint(q)) * self._dlog < 1e-9
        q[near] = (np.fromiter(map(math.log, kept[near].tolist()), float)
                   - self._log_lo) / self._dlog
        out = np.where(values > self.hi, self.n_bins + 1, 0)
        out[inside] = np.minimum(q.astype(np.intp) + 1, self.n_bins)
        return out

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

    ``series`` holds one trajectory sample per merged run; ``extra`` carries
    run settings and diagnostics (see ``merge`` for how they combine).
    ``autocorr_times`` caches, in series order, each series' (n,) site
    autocorrelation times, or None for a series not yet timed; it may be
    shorter than ``series``, its missing tail untimed
    (``stats.site_autocorr_times`` fills it).
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
    autocorr_times: list = field(default_factory=list)

    def mean(self) -> np.ndarray:
        return self.mean_acc / self.duration

    def cov(self) -> np.ndarray:
        mu = self.mean()
        return self.second_acc / self.duration - np.outer(mu, mu)

    def check_run(self, start_mass: float, final) -> None:
        """Raise RuntimeError unless a finished run kept its invariants.

        Mass balance: injected - extracted equals the mass gained from
        ``start_mass`` to the ``final`` state, exactly for counts and within
        MASS_TOL relative to the mass brought in for energies.
        Non-negativity: of the final state and mean_acc.
        """
        tol = 0.0 if Model(self.model).site.integral else MASS_TOL
        net = self.injected_a + self.injected_b - self.extracted_a - self.extracted_b
        gained = math.fsum(final) - start_mass
        if abs(net - gained) > tol * max(1.0, start_mass + self.injected_a + self.injected_b):
            raise RuntimeError(f"mass balance broken: injected - extracted = {net!r}, "
                               f"mass gained = {gained!r}")
        if min(final) < 0 or np.any(self.mean_acc < 0):
            raise RuntimeError("negative occupation in the final state or mean accumulator")

    def merge(self, other: "OccupationStats") -> "OccupationStats":
        """Sum accumulators of two independent runs (associative).

        ``extra`` keeps self's ``epsilon``, lists each ``PER_REPLICA_EXTRA``
        entry replica by replica, takes the largest ``max_resync_drift`` and
        sums the ``resyncs`` and ``channel_events``.  ``autocorr_times`` joins
        as ``series`` does, a side's untimed series as None entries.
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
            autocorr_times=[*self.autocorr_times,
                            *[None] * (len(self.series) - len(self.autocorr_times)),
                            *other.autocorr_times],
        )
        for mine, theirs in zip(out.hists, other.hists):
            mine.merge(theirs)
        return out

    def per_replica(self, key: str) -> list:
        """A ``PER_REPLICA_EXTRA`` entry as a list with one value per trajectory."""
        return self.extra[key] if len(self.series) > 1 else [self.extra[key]]

    def _merged_extra(self, other: "OccupationStats") -> dict:
        """Run settings from self; per-replica values as one list entry per replica."""
        out = {k: v for k, v in self.extra.items() if k not in PER_REPLICA_EXTRA}
        for key in PER_REPLICA_EXTRA:
            if key in self.extra and key in other.extra:
                out[key] = self.per_replica(key) + other.per_replica(key)
        if "max_resync_drift" in other.extra:
            out["max_resync_drift"] = max(self.extra.get("max_resync_drift", 0.0),
                                          other.extra["max_resync_drift"])
        if "resyncs" in self.extra and "resyncs" in other.extra:
            out["resyncs"] = self.extra["resyncs"] + other.extra["resyncs"]
            mine, theirs = self.extra["channel_events"], other.extra["channel_events"]
            out["channel_events"] = {k: mine[k] + theirs[k] for k in CHANNELS}
        return out


def initial_values(n: int, start, model: Model) -> list:
    """n zeros, or ``start`` as ``model``'s values (ints for counts, floats for
    energies); ValueError unless n finite non-negative values, whole for counts."""
    start = [0] * n if start is None else list(start)
    integral = model.site.integral
    as_float = [float(v) for v in start]
    if len(start) != n or not all(math.isfinite(v) and v >= 0.0 and
                                  (v.is_integer() or not integral) for v in as_float):
        raise ValueError(f"a start state must hold {n} finite non-negative "
                         f"{'integer counts' if integral else 'energies'}, got {start!r}")
    return [int(v) for v in start] if integral else as_float


@dataclass(slots=True)
class ChainState:
    """Live state of either chain, with cached channel rates.

    ``model`` names the chain and ``new_hist()`` makes one site's empty
    histogram for ``run_window``.  Site x holds ``values[x]`` and fires each
    of its two exit channels at rate ``rate_of(values[x])``, which is zero at
    or below ``floor``; a firing moves ``remove(values[x], draws)`` across.
    Reservoir A (B) injects ``sampler_a.draw(draws)`` into the first (last)
    site at rate ``sampler_a.total_rate``; ``inj_rate`` is their sum.
    ``site_rate`` caches the site rates and ``rate_sum`` their incrementally
    updated sum; ``resync`` rebuilds both from ``values``.  The state holds
    the chain and this cache only: ``run_window`` keeps every number a run
    measures in local variables and writes back only ``rate_sum``, before
    each resync.
    """

    model: Model
    new_hist: Callable[[], Any]
    values: list
    rate_of: Callable[[Any], float]
    floor: float
    remove: Callable[[Any, BlockDraws], Any]
    sampler_a: Any
    sampler_b: Any
    site_rate: list[float] = field(init=False)
    rate_sum: float = field(init=False)
    inj_rate: float = field(init=False)

    def __post_init__(self) -> None:
        self.inj_rate = self.sampler_a.total_rate + self.sampler_b.total_rate
        self.rate_sum = math.fsum(map(self.rate_of, self.values))  # exact: no drift to record
        self.resync()

    def resync(self) -> float:
        """Recompute the rate cache from ``values``; return the relative drift
        of ``rate_sum`` it found, a RuntimeError past RESYNC_DRIFT_TOL."""
        site_rate = [self.rate_of(v) for v in self.values]
        exact = math.fsum(site_rate)
        drift = abs(self.rate_sum - exact) / max(exact, 1.0)
        if drift > RESYNC_DRIFT_TOL:
            raise RuntimeError(f"rate cache drifted by {drift:.3e} (relative) before resync")
        self.site_rate = site_rate
        self.rate_sum = exact
        return drift


class _Blocks:
    """The statistics of one window, derived from the loop's change log block by block.

    The loop calls ``flush(changes, upto)`` before the first change after
    burn_in, which opens the window on the live ``values``, before the first
    change after a full block, and at the end; ``upto`` is a time the loop
    has reached, so the series is done up to it.  A flush forward-fills each
    change's view of the sites from the state its block opened on (``seen``)
    and gathers every statistic from it: old values and steps, the offsets
    (one ``np.cumsum`` down the opening offsets and a row per change holding
    its step * time in its site's column), the second-moment rows, the
    holding times into the histograms, and the series with its observer calls.
    """

    __slots__ = ("values", "burn_in", "opened", "rows", "hists", "weights", "grid", "series",
                 "next_grid", "observers")

    def __init__(self, values: list, burn_in: float, hists: list, grid: np.ndarray,
                 series: np.ndarray, observers) -> None:
        self.values = values  # the live state, read once: the window opens on it
        self.burn_in = burn_in
        self.opened = None  # per site: (value, offset, last change time) after the last flush
        self.rows = np.zeros((len(values), len(values)))
        self.hists = hists
        self.weights = np.zeros((len(values), len(hists[0].weights)))  # a row per histogram
        self.grid = grid
        self.series = series
        self.next_grid = 0
        self.observers = observers

    def flush(self, changes: list, upto: float) -> None:
        if self.opened is None:
            values = np.array(self.values, dtype=float)
            self.opened = (values, -values * self.burn_in, np.full(len(values), self.burn_in))
        opened = self.opened
        n = len(opened[0])
        block = np.array(changes, dtype=float).reshape(-1, 3)
        changes.clear()
        sites, times, new = block[:, 0].astype(np.intp), block[:, 1], block[:, 2]
        k = len(block)
        # seen[i, y] indexes site y's state as change i finds it (row k: after
        # the block): y in the opening state, or n + j after change j, the last
        # change of y before i.
        seen = np.tile(np.arange(n), (k + 1, 1))
        seen[np.arange(1, k + 1), sites] = np.arange(n, n + k)
        np.maximum.accumulate(seen, axis=0, out=seen)
        before = seen[np.arange(k), sites]  # x's own state before change i
        values = np.concatenate((opened[0], new))
        old = values[before]
        step = old - new
        # Row i: the offsets change i finds (row k: after the block).  Each column
        # sums its site's steps in change order; other sites' zeros add exactly.
        offsets = np.zeros((k + 1, n))
        offsets[0] = opened[1]
        offsets[np.arange(1, k + 1), sites] = step * times
        np.cumsum(offsets, axis=0, out=offsets)
        added = values[seen[:k]]
        added *= times[:, None]
        added += offsets[:k]
        added *= step[:, None]
        # One flat index per entry: the 1-D np.add.at is the fast one.
        np.add.at(self.rows.reshape(-1), (sites[:, None] * n + np.arange(n)).ravel(),
                  added.ravel())
        lasts = np.concatenate((opened[2], times))
        held = times - lasts[before]
        kept = held > 0.0
        self._hist_add(sites[kept], old[kept], held[kept])
        stop = int(np.searchsorted(self.grid, upto, side="right"))
        if stop > self.next_grid:
            at = slice(self.next_grid, stop)
            self.series[at] = values[seen[np.searchsorted(times, self.grid[at])]]
            if self.observers:
                for t, state in zip(self.grid[at].tolist(), self.series[at].tolist()):
                    for obs in self.observers:
                        obs(t, state)
            self.next_grid = stop
        self.opened = values[seen[k]], offsets[k], lasts[seen[k]]

    def _hist_add(self, sites: np.ndarray, values: np.ndarray, held: np.ndarray) -> None:
        """Add held[i] to site sites[i]'s histogram at values[i]'s bin, in order."""
        bins = self.hists[0].index(values)
        if bins.size and bins.max() >= self.weights.shape[1]:  # counts widen their histogram
            wider = np.zeros((len(self.weights), max(bins.max() + 1, 2 * self.weights.shape[1])))
            wider[:, :self.weights.shape[1]] = self.weights
            self.weights = wider
        np.add.at(self.weights.reshape(-1), sites * self.weights.shape[1] + bins, held)

    def close(self, t_max: float) -> tuple[np.ndarray, np.ndarray]:
        """The window's (mean_acc, second_acc), after a flush up to the run's end;
        fills the histograms' weights and the series points past the last event."""
        values, offsets, lasts = self.opened
        self.series[self.next_grid:] = values
        held = t_max - lasts
        kept = held > 0.0
        self._hist_add(np.flatnonzero(kept), values[kept], held[kept])
        for h, row in zip(self.hists, self.weights):  # each added bin holds a positive weight
            used = np.flatnonzero(row)
            h.weights = row[:max(len(h.weights), used[-1] + 1 if used.size else 0)].tolist()
        totals = offsets + values * t_max
        second = self.rows + np.outer(values, totals)
        return totals, 0.5 * (second + second.T)


def run_window(state: ChainState, rng, t_max: float, burn_in: float | None,
               grid_samples: int, observers) -> OccupationStats:
    """Run a chain state to t_max and measure it over [burn_in, t_max].

    Every random number of the run comes from one ``BlockDraws`` that wraps
    the Generator ``rng`` at the start; the chain's samplers receive that
    wrapper as their ``rng``.  Holding times are exponential at the state's
    total rate.  Each event draws its holding time (``standard_exponential``),
    then picks one channel proportionally to its rate (``random``: injection
    at A, injection at B, then the two exit channels of each site, by one
    linear scan over the site rates at every chain size), then draws the
    amount moved (the chain's samplers).  It changes one or two sites; each
    change updates the values and the rate cache, and the channel counts and
    fluxes.  That is all the loop does, in local variables; after burn_in it
    also logs each change as (site, time, new value).  ``rng`` ends the run
    advanced by whole blocks, the unused tails of the last ones included.

    Every statistic of the window comes from that log, in blocks of at most
    FLUSH_BLOCK_BYTES / (8 n) changes (``_Blocks``).  Per site x a flush
    carries the time of x's last change, the running integral
    I_x(c) = int_burn_in^c eta_x dt as I_x(c) = offset[x] + eta_x * c (exact
    while eta_x holds), and row x of int eta_x eta_y dt.  Summed by parts
    over x's holding intervals, a change of x from ``old`` to ``new`` at
    time c adds (old - new) * I_y(c) to row x (every y, as the sites stood
    before the change), offset[x] gains (old - new) * c and x's histogram,
    one ``state.new_hist()`` per site and run, takes ``old`` for the time
    since x's last change.  The window opens on the state at burn_in, with
    offset[x] = -eta_x * burn_in.  A flush does a scalar loop's float
    operations in change order (its offsets sum down one column per site,
    where other sites' zeros add exactly), so no statistic depends on the
    block length.  At t_max every site closes: I_x(t_max) is mean_acc[x],
    row x gains eta_x * I_y(t_max), and the rows, symmetric up to rounding, are
    averaged with their transpose into second_acc.

    The clock, the counts and the fluxes start at zero in local variables,
    so one state can run several windows.  The rate cache resyncs
    (``ChainState.resync``) every RESYNC_INTERVAL events, inside the loop,
    and once more at the end, so ``max_resync_drift``, the largest drift
    found, covers every run.  burn_in defaults to 10% of t_max.  The
    trajectory is also sampled on a uniform grid of ``grid_samples`` points,
    burn_in + (k + 1) * (t_max - burn_in) / grid_samples: an evenly spaced
    series for autocorrelation estimates, of the state's model's site dtype.
    Point g holds the state just before the first event at or after g, the
    one that ends the run included.  A flush calls every ``observers``
    callable once per point it fills, in grid order, as (g, a list copy of
    that state), so an observer cannot alter the run; a point that rounds
    past that last event time takes the final state with no call.  ``extra``
    counts the events of each of ``CHANNELS`` and the resyncs.  Injection
    samplers that count their ``proposals`` and ``accepts`` (the energy
    chain's) get this run's share of them as ``acceptance_a``/``acceptance_b``:
    the change in the counts over the run, so each window reports its own
    rate.  The run fails with RuntimeError if a removal is picked at a site
    at or below the floor, unless injected - extracted matches the mass
    gained (``check_run``), and unless every value stays non-negative.  A non-finite t_max or burn_in is
    a ValueError: the window would never close; so is grid_samples < 1,
    which leaves no series.  Both are checked before any draw.
    """
    if burn_in is None:
        burn_in = 0.1 * t_max
    if not (math.isfinite(t_max) and t_max > burn_in >= 0.0):
        raise ValueError(f"need finite t_max > burn_in >= 0, got ({t_max}, {burn_in})")
    if not grid_samples >= 1:
        raise ValueError(f"need grid_samples >= 1, got {grid_samples}")
    values = state.values
    n = len(values)
    start_mass = math.fsum(values)
    changes: list = []  # (site, time, new value) per change after burn_in
    block_entries = 3 * max(1, FLUSH_BLOCK_BYTES // (8 * n))
    flush_at = 0  # the first change after burn_in opens the window
    hists = [state.new_hist() for _ in range(n)]
    last_site = n - 1
    series = np.empty((grid_samples, n), dtype=state.model.site.dtype)
    grid_dt = (t_max - burn_in) / grid_samples
    window = _Blocks(values, burn_in, hists, burn_in + np.arange(1, grid_samples + 1) * grid_dt,
                     series, observers)
    draws = BlockDraws(rng)
    rexp, uniform = draws.standard_exponential, draws.random
    rate_a, draw_a = state.sampler_a.total_rate, state.sampler_a.draw
    rate_b, draw_b = state.sampler_b.total_rate, state.sampler_b.draw
    inj_rate = state.inj_rate
    rate_of, remove, floor = state.rate_of, state.remove, state.floor
    events = inject_a = inject_b = exit_a = exit_b = bulk = resyncs = 0
    injected_a = extracted_a = injected_b = extracted_b = 0
    max_drift = 0.0
    next_resync = resync_interval = RESYNC_INTERVAL
    rate_sum, site_rate = state.rate_sum, state.site_rate
    counted = [(key, sampler, sampler.proposals, sampler.accepts) for key, sampler in
               zip(("acceptance_a", "acceptance_b"), (state.sampler_a, state.sampler_b))
               if hasattr(sampler, "proposals")]
    wall_start = time.perf_counter()
    t = 0.0
    while True:
        total = 2.0 * rate_sum + inj_rate
        t_new = t + rexp() / total
        if t_new >= t_max:
            break
        t = t_new
        # Pick the channel; x takes ``new``, then ``to`` (if >= 0) gains ``amount``.
        u = uniform() * total
        to = -1
        if u < rate_a:
            amount = draw_a(draws)
            x, new = 0, values[0] + amount
            injected_a += amount
            inject_a += 1
        elif u - rate_a < rate_b:
            amount = draw_b(draws)
            x, new = last_site, values[last_site] + amount
            injected_b += amount
            inject_b += 1
        else:
            # Site x fires at 2 * site_rate[x].  Halving u once is exact, so each
            # test u < r and residual u - r is the u < 2r scan's, bit for bit.
            u = 0.5 * (u - rate_a - rate_b)
            for x, r in enumerate(site_rate):
                if u < r:
                    break
                u -= r
            else:  # a float spill lands on the last positive-rate site
                x, u = max(i for i, r in enumerate(site_rate) if r > 0.0), 0.0
            to = x - 1 if u + u < site_rate[x] else x + 1
            held = values[x]
            if not held > floor:
                raise RuntimeError(f"removal channel selected at site {x} holding {held!r}")
            amount = remove(held, draws)
            new = held - amount
            if to < 0:
                extracted_a += amount
                exit_a += 1
            elif to > last_site:
                extracted_b += amount
                exit_b += 1
                to = -1
            else:
                bulk += 1
        while True:  # site x takes ``new``
            if t > burn_in:
                if len(changes) == flush_at:  # before this change: it opens the next block
                    window.flush(changes, t)
                    flush_at = block_entries
                changes += (x, t, new)
            values[x] = new
            rate = rate_of(new)
            delta = rate - site_rate[x]
            site_rate[x] = rate
            rate_sum += delta
            if to < 0:
                break
            x, new, to = to, values[to] + amount, -1
        events += 1
        if events == next_resync:
            state.rate_sum = rate_sum
            max_drift = max(max_drift, state.resync())
            rate_sum, site_rate = state.rate_sum, state.site_rate
            next_resync += resync_interval
            resyncs += 1
    state.rate_sum = rate_sum
    max_drift = max(max_drift, state.resync())  # at the end too: every run measures drift
    resyncs += 1
    window.flush(changes, t_new)
    mean_acc, second_acc = window.close(t_max)
    wall = time.perf_counter() - wall_start
    stats = OccupationStats(
        n_sites=n, model=state.model.value, duration=t_max - burn_in,
        event_count=events, mean_acc=mean_acc, second_acc=second_acc, hists=hists,
        series=[series], series_dt=grid_dt, wall_seconds=wall,
        injected_a=float(injected_a), extracted_a=float(extracted_a),
        injected_b=float(injected_b), extracted_b=float(extracted_b),
        extra={"max_resync_drift": max_drift,
               "channel_events": dict(zip(CHANNELS, (inject_a, inject_b, exit_a, exit_b, bulk))),
               "resyncs": resyncs},
    )
    for key, sampler, proposals_before, accepts_before in counted:  # this run's share
        proposals = sampler.proposals - proposals_before
        accepts = sampler.accepts - accepts_before
        stats.extra[key] = accepts / proposals if proposals else math.nan
    stats.check_run(start_mass, values)
    return stats
