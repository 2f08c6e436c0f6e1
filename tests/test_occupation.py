"""The fused event engine against the reference stepper, its accumulator
against a dense re-walk of the stepper's trajectory, and its block draws
against the Generator's own vector draws."""

import hashlib
import math
from bisect import bisect_left
from types import SimpleNamespace

import numpy as np
import pytest

from drivenchain import continuous_sim, discrete_sim, occupation
from drivenchain.continuous_sim import new_state_continuous, simulate_continuous
from drivenchain.core import ChainParams, make_rng
from drivenchain.discrete_sim import new_state, simulate
from drivenchain.measure import Model
from drivenchain.occupation import (CHANNELS, DRAW_BLOCK, BinnedHistogram, BlockDraws,
                                   IntHistogram, OccupationStats)

D5 = ChainParams(n=5, beta_a=0.5, beta_b=0.75)
D65 = ChainParams(n=65, beta_a=0.5, beta_b=0.75)
C5 = ChainParams(n=5, t_a=1.0, t_b=2.0)
C65 = ChainParams(n=65, t_a=1.0, t_b=2.0)
D200 = ChainParams(n=200, beta_a=0.5, beta_b=0.75)

# name -> (model, params, simulator keywords); burn_in=37.3 and 13.7 fall
# between events, burn_in=0.9 after the second event, and n=200 spans many
# flush blocks of the row update.  The "fenwick" keys name the sizes above 64
# sites, which once picked channels by Fenwick-tree search and now take the
# one linear scan; they keep their names, so the pinned tables key on them.
CASES = {
    "discrete-burn0": ("discrete", D5, dict(t_max=300.0, burn_in=0.0, seed=32, grid_samples=512)),
    "discrete-mid": ("discrete", D5, dict(t_max=400.0, burn_in=37.3, seed=31, grid_samples=512)),
    "discrete-fenwick": ("discrete", D65, dict(t_max=60.0, burn_in=10.0, seed=33,
                                               grid_samples=256)),
    "discrete-eta0": ("discrete", D5, dict(t_max=300.0, seed=34, eta0=[3, 0, 7, 1, 2],
                                           grid_samples=512)),
    "discrete-early": ("discrete", D5, dict(t_max=150.0, burn_in=0.9, seed=38, grid_samples=512)),
    "discrete-fenwick200": ("discrete", D200, dict(t_max=6.0, seed=39, eta0=[2] * 200,
                                                   grid_samples=256)),
    "continuous-burn0": ("continuous", C5, dict(t_max=60.0, burn_in=0.0, seed=35,
                                                grid_samples=512)),
    "continuous-mid": ("continuous", C5, dict(t_max=80.0, burn_in=13.7, seed=36,
                                              grid_samples=512)),
    "continuous-fenwick": ("continuous", C65, dict(t_max=10.0, burn_in=2.0, seed=36,
                                                   grid_samples=256)),
    "continuous-z0": ("continuous", C5, dict(t_max=60.0, seed=37, z0=[0.5, 1.0, 0.0, 2.5, 1.5],
                                             grid_samples=512)),
}


def run_engine(name: str, observers=()) -> OccupationStats:
    model, params, kw = CASES[name]
    return (simulate if model == "discrete" else simulate_continuous)(params, **kw,
                                                                      observers=observers)


def window(name: str) -> tuple[float, float]:
    """A case's (burn_in, t_max); burn_in defaults to 10% of t_max, as in ``run_window``."""
    kw = CASES[name][2]
    return kw.get("burn_in", 0.1 * kw["t_max"]), kw["t_max"]


def run_stepper(name: str, reference_run):
    """The reference stepper on a case: (start values, final state, its run record,
    [(event time, values after)])."""
    model, params, kw = CASES[name]
    if model == "discrete":
        state = new_state(params, kw.get("eta0"))
    else:
        state = new_state_continuous(params, z0=kw.get("z0"))
    start = list(state.values)
    events = []
    run = reference_run(state, make_rng(kw["seed"]), kw["t_max"],
                        lambda st, r: events.append((r.time, list(st.values))))
    return start, state, run, events


# Produced by the block-draw engine (``occupation.BlockDraws``), which the
# reference stepper and the dense re-walk above hold to:
# (event_count, sha256 of series[0] bytes, (injected_a, extracted_a, injected_b,
# extracted_b), sha256 of repr(final state)), each hash cut to 16 hex digits.
PINNED = {
    "discrete-burn0": (3436, "35eab234dc16f058", (258.0, 362.0, 930.0, 816.0), "2ee5aa041f7b1675"),
    "discrete-mid": (4675, "397a7863799773a7", (372.0, 461.0, 1138.0, 1043.0), "566fbb2e9fb8e2fd"),
    "discrete-fenwick": (1818, "d30ddb1241ed5164", (54.0, 50.0, 206.0, 180.0), "366360df8e6fca5f"),
    "discrete-eta0": (4105, "39b8d043576bc879", (288.0, 419.0, 977.0, 843.0), "9882250c7663e1a6"),
    "discrete-early": (2046, "2b0dda85ad85f7e9", (145.0, 209.0, 506.0, 426.0), "e355f6ac911ed6bc"),
    "discrete-fenwick200": (2854, "0907034fb05e9d08", (2.0, 13.0, 24.0, 15.0), "53ff202b0650a762"),
    "continuous-burn0": (10035, "6b4d5ed755a9b6f7", (50.11032809955426, 53.32489719378615,
                                                      121.7409401242193, 106.94016005782865),
                         "3a5ca777c07c7b44"),
    "continuous-mid": (12901, "4792b8896f3a1cad", (91.21059703577245, 106.45954847255935,
                                                   131.16347889839082, 112.29166170508903),
                       "c1093974b3c25f27"),
    "continuous-fenwick": (3301, "6b9abf8573575fe1", (6.963067427125223, 6.081850365662997,
                                                      15.143059324970087, 6.8187506633911985),
                           "592b977d2ee0f79a"),
    "continuous-z0": (9706, "6205d55c57523b14", (56.23622989837987, 59.591965218699464,
                                                 106.91063801995158, 101.72105048436876),
                      "875c92567c60b9e7"),
}

# The float accumulators of the same runs: sha256 of mean_acc bytes, of
# second_acc bytes and of repr(list of histogram weight lists), 16 hex digits each.
PINNED_ACC = {
    "continuous-burn0": ("57d110cf62e28628", "e447e2ddbff8fb09", "aac5ecfbdf8e4681"),
    "continuous-fenwick": ("6149be6ed68f08f3", "e126748a6fd34e37", "085c0e7ca8e35c8d"),
    "continuous-mid": ("6a46928071a654c0", "db73d4af306f2694", "3b76b8b92bac2e52"),
    "continuous-z0": ("0a25765df6cd9d09", "9ad80eb924e9572c", "addf8e0ffaec6945"),
    "discrete-burn0": ("5621b7554a588bcd", "41effb60bd919e18", "7089f3f0628df26f"),
    "discrete-early": ("7d612680e93955e9", "bdb6cf37d0cd817e", "d87c2253ed9948b2"),
    "discrete-eta0": ("8400eaf746f3c909", "12a42e079ec0b944", "9a00e14f86dc63b7"),
    "discrete-fenwick": ("99f553c47238b15b", "44a4a3c12633b26e", "9b5a4af4e7ac43c6"),
    "discrete-fenwick200": ("8bb090f62ca71ecf", "aa50aecea13f4f8a", "3a6e46648bdce5e1"),
    "discrete-mid": ("6cc49bdf02d950b1", "8edaecbe1f9c3961", "a295aa016d5a8878"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def dense_walk(start, events, burn_in: float, t_max: float):
    """Re-walk a recorded trajectory one holding interval at a time.

    Returns the positive weights of the holding intervals clipped to
    [burn_in, t_max], the state held on each, and the exactly summed (fsum)
    first and second moment integrals.
    """
    times = [0.0] + [c for c, _ in events] + [t_max]
    states = [start] + [s for _, s in events]
    weights, held = [], []
    for lo, hi, s in zip(times[:-1], times[1:], states):
        w = min(hi, t_max) - max(lo, burn_in)
        if w > 0.0:
            weights.append(w)
            held.append(s)
    w = np.array(weights)
    x = np.array(held, dtype=float)
    n = x.shape[1]
    mean = np.array([math.fsum(x[:, i] * w) for i in range(n)])
    second = np.zeros((n, n))
    for i in range(n):  # x_i x_j w and x_j x_i w are the same floats
        for j in range(i, n):
            second[i, j] = second[j, i] = math.fsum(x[:, i] * x[:, j] * w)
    return w, x, mean, second


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_reference_stepper(reference_run, same_run, name):
    st = run_engine(name)
    start, state, run, events = run_stepper(name, reference_run)
    same_run(st, state, run)
    assert st.event_count == len(events)
    # Grid point g shows the state held just before the first event at or after g.
    (burn_in, _), grid_dt = window(name), st.series_dt
    times = [c for c, _ in events]
    states = [start] + [s for _, s in events]
    grid = [burn_in + (k + 1) * grid_dt for k in range(len(st.series[0]))]
    expect = np.array([states[bisect_left(times, g)] for g in grid], dtype=st.series[0].dtype)
    assert np.array_equal(st.series[0], expect)


@pytest.mark.parametrize("name", sorted(CASES))
def test_channel_counts_sum_to_event_count(name):
    st = run_engine(name)
    counts = st.extra["channel_events"]
    assert list(counts) == list(CHANNELS)
    assert sum(counts.values()) == st.event_count
    assert min(counts.values()) > 0
    assert st.extra["resyncs"] == 1
    assert "selection" not in st.extra


class _FixedDraws:
    """A Generator stand-in: ``random`` yields ``uniforms`` and then 0.5,
    ``standard_exponential`` 1e-3 and then 1e9, so a unit-scale window holds
    exactly one event, picked by the first uniform."""

    def __init__(self, uniforms) -> None:
        self.uniforms = list(uniforms)
        self.holds = [1e-3]

    def random(self, size: int) -> np.ndarray:
        out = np.full(size, 0.5)
        out[:len(self.uniforms)] = self.uniforms
        self.uniforms = []
        return out

    def standard_exponential(self, size: int) -> np.ndarray:
        out = np.full(size, 1e9)
        out[:len(self.holds)] = self.holds
        self.holds = []
        return out


# Site rates value / 8 (zero on empty sites), injection rates 1/4 and 1/2:
# every channel boundary is dyadic and the total rate is 4, so u = 4 * uniform
# lands on each boundary exactly.
SCAN_RATE_A, SCAN_RATE_B = 0.25, 0.5
SCAN_LAYOUTS = {"last-site-live": [3, 0, 5, 0, 4, 1], "end-sites-empty": [0, 2, 0, 7, 4, 0]}


def _scan_state(values: list, rate_sum_slip: float = 0.0) -> occupation.ChainState:
    inject = lambda rate: SimpleNamespace(total_rate=rate, draw=lambda draws: 1)
    state = occupation.ChainState(Model.DISCRETE, IntHistogram, list(values), lambda v: 0.125 * v,
                                  0, lambda held, draws: 1, inject(SCAN_RATE_A), inject(SCAN_RATE_B))
    state.rate_sum += rate_sum_slip  # a rate cache that drifted, within the resync bound
    return state


def _one_event_picks(values: list, uniform: float, reference_run, rate_sum_slip: float = 0.0):
    """The (from, to) channel the engine and the stepper pick at ``uniform``, each
    as the sites that lost and gained a unit (-1 and n for reservoirs A and B)."""
    picks = []
    for engine in (True, False):
        state = _scan_state(values, rate_sum_slip)
        if engine:
            st = occupation.run_window(state, _FixedDraws([uniform]), 1.0, 0.5, 1, ())
            assert st.event_count == 1
            fluxes = st.injected_a, st.extracted_a
        else:
            run = reference_run(state, _FixedDraws([uniform]), 1.0)
            assert run.events == 1
            fluxes = run.injected_a, run.extracted_a
        lost = [x for x, (a, b) in enumerate(zip(values, state.values)) if b < a]
        gained = [x for x, (a, b) in enumerate(zip(values, state.values)) if b > a]
        picks.append((lost[0] if lost else -1 if fluxes[0] else len(values),
                      gained[0] if gained else -1 if fluxes[1] else len(values)))
    return picks


@pytest.mark.parametrize("layout", sorted(SCAN_LAYOUTS))
def test_halved_scan_picks_the_steppers_channel_on_every_boundary(reference_run, layout):
    values = SCAN_LAYOUTS[layout]
    n = len(values)
    rates = [0.125 * v for v in values]
    total = 2.0 * sum(rates) + SCAN_RATE_A + SCAN_RATE_B
    assert total == 4.0
    # The channels in scan order, each with its lower boundary in u.
    channels = [(-1, 0), (n, n - 1)] + [(x, to) for x, r in enumerate(rates) if r > 0.0
                                          for to in (x - 1, x + 1)]
    widths = [SCAN_RATE_A, SCAN_RATE_B] + [r for r in rates if r > 0.0 for _ in range(2)]
    lows = np.cumsum([0.0] + widths[:-1]).tolist()
    for channel, low in zip(channels, lows):
        engine, stepper = _one_event_picks(values, low / total, reference_run)
        assert engine == stepper == channel, (low, engine, stepper)
        if low > 0.0:  # one ulp below: the channel before it
            below = math.nextafter(low, 0.0) / total
            engine, stepper = _one_event_picks(values, below, reference_run)
            assert engine == stepper == channels[channels.index(channel) - 1], (low, engine)
    engine, stepper = _one_event_picks(values, math.nextafter(1.0, 0.0), reference_run)
    assert engine == stepper == channels[-1]  # the top of the range
    # A cached total above the site rates' sum spills past the last channel:
    # both land on the last positive-rate site and move left.
    last = max(x for x, r in enumerate(rates) if r > 0.0)
    engine, stepper = _one_event_picks(values, math.nextafter(1.0, 0.0), reference_run,
                                       rate_sum_slip=2.0 ** -33)
    assert engine == stepper == (last, last - 1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lazy_accumulator_matches_dense_rewalk(monkeypatch, reference_run, name):
    start, _, run, events = run_stepper(name, reference_run)
    burn_in, t_max = window(name)
    w, x, mean, second = dense_walk(start, events, burn_in, t_max)
    # Pairs are judged on the Cauchy-Schwarz scale sqrt(M_xx M_yy) >= |M_xy|:
    # lazy increments carry rounding of the running integrals, so a pair that
    # barely overlaps in time is exact only relative to that scale.
    scale = np.sqrt(np.outer(np.diag(second), np.diag(second)))
    n = CASES[name][1].n
    # The statistics flush after every change, every 7 changes, and in
    # default-sized blocks; the accumulators, the series and the observers
    # must not see the difference.
    for block_bytes in (8 * n, 7 * 8 * n, occupation.FLUSH_BLOCK_BYTES):
        monkeypatch.setattr(occupation, "FLUSH_BLOCK_BYTES", block_bytes)
        calls = []
        st = run_engine(name, observers=[lambda t, values: calls.append((t, values))])
        assert len(events) == st.event_count
        assert _sha(st.series[0].tobytes()) == PINNED[name][1]
        # An observer sees each grid point the loop reaches: those at or before
        # the end of the first holding time past t_max.
        grid = [burn_in + (k + 1) * st.series_dt for k in range(len(st.series[0]))]
        assert calls == [(g, row) for g, row in zip(grid, st.series[0].tolist()) if g <= run.end]
        assert math.fsum(w) == pytest.approx(st.duration, rel=1e-12)
        np.testing.assert_allclose(st.mean_acc, mean, rtol=1e-12, atol=0.0)
        assert np.all(np.abs(st.second_acc - second) <= 1e-12 * scale)
        assert np.array_equal(st.second_acc, st.second_acc.T)
        for site, h in enumerate(st.hists):
            if isinstance(h, IntHistogram):
                expect = np.bincount(x[:, site].astype(int), weights=w)
            else:
                # Slot 0 at or below lo, n_bins + 1 above hi, else the log bin.
                log_lo = math.log(h.lo)
                dlog = (math.log(h.hi) - log_lo) / h.n_bins
                expect = np.zeros(h.n_bins + 2)
                for v, wi in zip(x[:, site].tolist(), w):
                    slot = (0 if v <= h.lo else h.n_bins + 1 if v > h.hi
                            else min(int((math.log(v) - log_lo) / dlog) + 1, h.n_bins))
                    expect[slot] += wi
            assert len(h.weights) == len(expect)
            np.testing.assert_allclose(h.weights, expect, rtol=1e-12, atol=0.0)
        assert accumulator_hashes(st) == PINNED_ACC[name]


@pytest.mark.parametrize("name", ["discrete-mid", "continuous-mid"])
def test_observers_cannot_alter_the_run(name):
    def vandal(t, values):
        values[0] += 1
        values.clear()

    seen = []
    st = run_engine(name, observers=[lambda t, values: seen.append(list(values)), vandal])
    events, series_sha, fluxes, _ = PINNED[name]
    assert (st.event_count, _sha(st.series[0].tobytes())) == (events, series_sha)
    assert (st.injected_a, st.extracted_a, st.injected_b, st.extracted_b) == fluxes
    assert accumulator_hashes(st) == PINNED_ACC[name]
    assert seen == st.series[0].tolist()  # each grid point gets a fresh copy


# Windows that see no change after burn_in, at the parent engine's values:
# (simulator, keywords, mean_acc, second_acc).  The first two run no event; the
# third runs 38, all before burn_in.
QUIET = {
    "discrete-no-event": (simulate, dict(t_max=1e-9, seed=3, eta0=[3, 1]),
                          [2.7e-09, 9e-10], [[8.1e-09, 2.7e-09], [2.7e-09, 9e-10]]),
    "continuous-no-event": (simulate_continuous, dict(t_max=1e-9, seed=3, z0=[0.5, 2.0]),
                            [4.5e-10, 1.8e-09], [[2.25e-10, 9e-10], [9e-10, 3.6e-09]]),
    "discrete-late-burn-in": (simulate, dict(t_max=5.0, burn_in=4.999999, seed=3, eta0=[3, 1]),
                              [0.0, 4.000000000559112e-06],
                              [[0.0, 0.0], [0.0, 1.6000000002236447e-05]]),
}


@pytest.mark.parametrize("name", sorted(QUIET))
def test_window_without_changes_holds_its_opening_state(name):
    run, kw, mean_acc, second_acc = QUIET[name]
    params = ChainParams(n=2, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
    st = run(params, **kw, grid_samples=8)
    final = st.extra["final_eta" if run is simulate else "final_z"]
    assert st.event_count == (38 if "late" in name else 0)
    assert st.series[0].tolist() == [final] * 8
    for h, v in zip(st.hists, final):
        slot = h.index(np.array([v], dtype=float))[0]
        assert h.weights[slot] == st.duration
        assert sum(h.weights) == st.duration  # every other slot is empty
    assert (st.mean_acc.tolist(), st.second_acc.tolist()) == (mean_acc, second_acc)


def test_last_grid_point_past_the_last_event_gets_no_observer_call():
    # The first holding time is the whole run, and the third grid point
    # rounds past t_max: it takes the final state but, as in a loop that
    # visits grid points only up to an event, no observer call.
    params = ChainParams(n=2, beta_a=0.5, beta_b=0.75)
    state = new_state(params)
    t_max = 0.0 + BlockDraws(make_rng(2)).standard_exponential() / (
        2.0 * state.rate_sum + state.inj_rate)
    burn_in = 0.1 * t_max
    grid_dt = (t_max - burn_in) / 3
    assert burn_in + 2 * grid_dt <= t_max < burn_in + 3 * grid_dt
    calls = []
    st = simulate(params, t_max, seed=2, grid_samples=3,
                  observers=[lambda t, values: calls.append(t)])
    assert st.event_count == 0
    assert calls == [burn_in + grid_dt, burn_in + 2 * grid_dt]
    assert st.series[0].tolist() == [[0, 0]] * 3


@pytest.mark.parametrize("name", sorted(PINNED))
def test_integer_outputs_series_and_fluxes_are_pinned(name):
    st = run_engine(name)
    events, series_sha, fluxes, final_sha = PINNED[name]
    final = st.extra["final_eta" if CASES[name][0] == "discrete" else "final_z"]
    assert st.event_count == events
    assert _sha(st.series[0].tobytes()) == series_sha
    assert (st.injected_a, st.extracted_a, st.injected_b, st.extracted_b) == fluxes
    assert _sha(repr(list(final)).encode()) == final_sha


def accumulator_hashes(st: OccupationStats) -> tuple[str, str, str]:
    return (_sha(st.mean_acc.tobytes()), _sha(st.second_acc.tobytes()),
            _sha(repr([h.weights for h in st.hists]).encode()))


@pytest.mark.parametrize("name", sorted(PINNED_ACC))
def test_float_accumulators_are_pinned(name):
    assert accumulator_hashes(run_engine(name)) == PINNED_ACC[name]


@pytest.mark.parametrize("order", ["interleaved", "uniforms first"])
def test_block_draws_are_the_generators_vector_draws(order):
    # Three refills of each stream; the fourth block is read once.  The twin
    # draws its blocks in the order the two streams run out.
    count = 3 * DRAW_BLOCK + 1
    draws, twin = BlockDraws(make_rng(5)), make_rng(5)
    if order == "interleaved":
        pairs = [(draws.random(), draws.standard_exponential()) for _ in range(count)]
        uniforms, exponentials = (list(v) for v in zip(*pairs))
        blocks = [(twin.random(DRAW_BLOCK), twin.standard_exponential(DRAW_BLOCK))
                  for _ in range(4)]
        want_u = np.concatenate([u for u, _ in blocks])
        want_e = np.concatenate([e for _, e in blocks])
    else:
        uniforms = [draws.random() for _ in range(count)]
        exponentials = [draws.standard_exponential() for _ in range(count)]
        want_u = np.concatenate([twin.random(DRAW_BLOCK) for _ in range(4)])
        want_e = np.concatenate([twin.standard_exponential(DRAW_BLOCK) for _ in range(4)])
    assert uniforms == want_u[:count].tolist()
    assert exponentials == want_e[:count].tolist()
    assert all(type(v) is float for v in (uniforms[-1], exponentials[-1]))


def _stats(**kw) -> OccupationStats:
    base = dict(n_sites=2, model="continuous", mean_acc=np.array([1.0, 2.0]),
                injected_a=3.0, extracted_a=1.0, injected_b=0.5, extracted_b=0.5)
    base.update(kw)
    return OccupationStats(**base)


class TestCheckRun:
    def test_balanced_run_passes(self):
        _stats().check_run(0.0, [1.5, 0.5])
        _stats().check_run(1.0, [2.5, 0.5])  # started with mass 1

    def test_mass_imbalance_raises(self):
        with pytest.raises(RuntimeError, match="mass balance"):
            _stats().check_run(0.0, [1.5, 0.6])
        with pytest.raises(RuntimeError, match="mass balance"):
            _stats(model="discrete").check_run(0.0, [1.0, 1.0 + 1e-12])

    def test_negative_values_raise(self):
        with pytest.raises(RuntimeError, match="negative"):
            _stats().check_run(0.0, [2.5, -0.5])
        with pytest.raises(RuntimeError, match="negative"):
            _stats(mean_acc=np.array([1.0, -1e-300])).check_run(0.0, [1.5, 0.5])


def _short_run_from(monkeypatch, model, corrupt):
    """A short run (far fewer events than RESYNC_INTERVAL) whose start state ``corrupt`` edits."""
    owner, name = ((discrete_sim, "new_state") if model == "discrete"
                   else (continuous_sim, "new_state_continuous"))
    real = getattr(owner, name)

    def corrupted(*args, **kwargs):
        state = real(*args, **kwargs)
        corrupt(state)
        return state

    monkeypatch.setattr(owner, name, corrupted)
    if model == "discrete":
        return simulate(D5, 50.0, seed=1, grid_samples=64)
    return simulate_continuous(C5, 20.0, seed=1, grid_samples=64)


@pytest.mark.parametrize("model", ["discrete", "continuous"])
def test_simulators_reject_broken_mass_balance(monkeypatch, model):
    leaked = []

    def leaky_injection(state):  # one unit appears at site 1 that no channel brought in
        real = state.sampler_a

        def draw(draws):
            if not leaked:
                state.values[0] += 1
                leaked.append(state.values[0])
            return real.draw(draws)

        state.sampler_a = SimpleNamespace(total_rate=real.total_rate, draw=draw)

    # The injection's own change heals site 1's cached rate, so only the mass
    # balance sees the leak.
    with pytest.raises(RuntimeError, match="mass balance"):
        _short_run_from(monkeypatch, model, leaky_injection)
    assert len(leaked) == 1


@pytest.mark.parametrize("model", ["discrete", "continuous"])
def test_short_run_checks_its_rate_cache(monkeypatch, model):
    # Far fewer events than RESYNC_INTERVAL: only the resync at the end can see this.
    def inflate(state):
        state.rate_sum += 1e-6

    st = _short_run_from(monkeypatch, model, lambda state: None)
    assert 100 < st.event_count < occupation.RESYNC_INTERVAL
    assert st.extra["resyncs"] == 1
    with pytest.raises(RuntimeError, match="drifted"):
        _short_run_from(monkeypatch, model, inflate)


@pytest.mark.parametrize("model", ["discrete", "continuous"])
def test_one_state_runs_two_windows(model):
    # The state holds no counts or fluxes, so a second window starts its own from zero.
    if model == "discrete":
        state = new_state(ChainParams(n=3, beta_a=0.5, beta_b=0.75))
    else:
        state = new_state_continuous(ChainParams(n=3, t_a=1.0, t_b=2.0))
    rng = make_rng(1)
    first = occupation.run_window(state, rng, 50.0, None, 64, ())
    start = list(state.values)
    second = occupation.run_window(state, rng, 50.0, None, 64, ())
    assert all(a is not b for a, b in zip(first.hists, second.hists))  # fresh per window
    for st in (first, second):
        assert st.event_count > 100
        assert sum(st.extra["channel_events"].values()) == st.event_count
        assert st.extra["resyncs"] == 1
    net = second.injected_a + second.injected_b - second.extracted_a - second.extracted_b
    assert net == pytest.approx(sum(state.values) - sum(start), rel=0.0, abs=1e-9)


@pytest.mark.parametrize("t_max, burn_in", [(math.inf, 0.0), (math.inf, None), (math.nan, 0.0),
                                             (50.0, math.inf), (50.0, math.nan)])
def test_non_finite_window_is_rejected(t_max, burn_in):
    def no_draws(size):  # a window that never ends must not start
        raise AssertionError("the run drew random numbers")

    rng = SimpleNamespace(random=no_draws, standard_exponential=no_draws)
    state = new_state(ChainParams(n=3, beta_a=0.5, beta_b=0.75))
    with pytest.raises(ValueError, match="finite"):
        occupation.run_window(state, rng, t_max, burn_in, 8, ())


@pytest.mark.parametrize("grid_samples", [0, -3])
def test_window_without_grid_points_is_rejected(grid_samples):
    def no_draws(size):  # a window with no series must not start
        raise AssertionError("the run drew random numbers")

    rng = SimpleNamespace(random=no_draws, standard_exponential=no_draws)
    state = new_state(ChainParams(n=3, beta_a=0.5, beta_b=0.75))
    with pytest.raises(ValueError, match="grid_samples >= 1"):
        occupation.run_window(state, rng, 50.0, None, grid_samples, ())
    with pytest.raises(ValueError, match="grid_samples >= 1"):
        simulate(ChainParams(n=3, beta_a=0.5, beta_b=0.75), 50.0, seed=1,
                 grid_samples=grid_samples)


@pytest.mark.parametrize("model", ["discrete", "continuous"])
def test_the_state_fixes_what_a_run_records(model):
    # Histograms, series dtype, model name and mass rule come from the state alone.
    if model == "discrete":
        state = new_state(ChainParams(n=3, beta_a=0.5, beta_b=0.75))
        hist_type, dtype = IntHistogram, np.int64
    else:
        state = new_state_continuous(ChainParams(n=3, t_a=1.0, t_b=2.0))
        hist_type, dtype = BinnedHistogram, np.float64
    made, make = [], state.new_hist
    state.new_hist = lambda: made.append(make()) or made[-1]
    st = occupation.run_window(state, make_rng(1), 50.0, None, 64, ())
    assert state.model is Model(model) and st.model == model
    assert st.hists == made and len(made) == 3
    assert all(type(h) is hist_type for h in made)
    assert st.series[0].dtype == dtype
    final = list(state.values)
    st.check_run(0.0, final)  # the window opened on the empty chain
    slipped = [final[0] + 1e-12 * (st.injected_a + st.injected_b)] + final[1:]
    if model == "discrete":  # counts balance exactly
        with pytest.raises(RuntimeError, match="mass balance"):
            st.check_run(0.0, slipped)
    else:  # energies within occupation.MASS_TOL, relative
        st.check_run(0.0, slipped)


def scalar_slot(h: BinnedHistogram, v: float) -> int:
    """The bin rule one value at a time, with ``math.log``."""
    if v <= h.lo:
        return 0
    if v > h.hi:
        return h.n_bins + 1
    log_lo = math.log(h.lo)
    dlog = (math.log(h.hi) - log_lo) / h.n_bins
    return min(int((math.log(v) - log_lo) / dlog) + 1, h.n_bins)


@pytest.mark.parametrize("lo, hi, n_bins", [
    (10 * continuous_sim.default_epsilon(C5), 50 * C5.t_b, 256),  # a run's site histograms
    (1e-3, 7.0, 4096),
    (0.3, 0.31, 1000),
    (1.0, 1.0 + 1e-9, 256),
])
def test_binned_index_matches_the_scalar_rule_on_and_around_every_edge(lo, hi, n_bins):
    h = BinnedHistogram(lo, hi, n_bins)
    edges = h.edges()
    ulps = [edges]
    for _ in range(3):
        ulps = [np.nextafter(ulps[0], 0.0), *ulps, np.nextafter(ulps[-1], np.inf)]
    draws = np.exp(make_rng(7).uniform(math.log(lo) - 0.1, math.log(hi) + 0.1, 100_000))
    values = np.concatenate([*ulps, draws, [lo, hi, 0.0, np.inf]])
    assert h.index(values).tolist() == [scalar_slot(h, v) for v in values.tolist()]


@pytest.mark.parametrize("factory, key, start", [
    (new_state, "eta0", [1.5, 0.7]),
    (new_state, "eta0", [math.nan, 0]),
    (new_state, "eta0", [math.inf, 0]),
    (new_state, "eta0", [2, -1]),
    (new_state, "eta0", [2]),
    (new_state_continuous, "z0", [math.nan, 1.0]),
    (new_state_continuous, "z0", [0.5, math.inf]),
    (new_state_continuous, "z0", [0.5, -1e-300]),
], ids=["counts-fraction", "counts-nan", "counts-inf", "counts-negative", "counts-short",
        "energies-nan", "energies-inf", "energies-negative"])
def test_start_state_must_hold_the_models_values(factory, key, start):
    params = ChainParams(n=2, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
    with pytest.raises(ValueError, match="a start state must hold 2"):
        factory(params, **{key: start})


def test_start_state_takes_the_models_value_type():
    params = ChainParams(n=2, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
    for start in ([3.0, 0], np.array([3, 0])):
        values = new_state(params, eta0=start).values
        assert values == [3, 0] and all(type(v) is int for v in values)
    values = new_state_continuous(params, z0=np.array([3, 0])).values
    assert values == [3.0, 0.0] and all(type(v) is float for v in values)


def test_each_window_reports_its_own_acceptance():
    # The samplers count over their whole life; a window reports the change.
    state = new_state_continuous(ChainParams(n=3, t_a=1.0, t_b=2.0))
    samplers = (state.sampler_a, state.sampler_b)
    rng = make_rng(1)
    windows = []
    for _ in range(2):
        before = [(s.proposals, s.accepts) for s in samplers]
        st = occupation.run_window(state, rng, 50.0, None, 64, ())
        windows.append([(s.proposals - p, s.accepts - a) for s, (p, a) in zip(samplers, before)])
        for key, (proposals, accepts) in zip(("acceptance_a", "acceptance_b"), windows[-1]):
            assert proposals > 100
            assert st.extra[key] == accepts / proposals
    lifetime = samplers[0].accepts / samplers[0].proposals
    assert st.extra["acceptance_a"] != lifetime  # the second window is not the sampler's life
    discrete = simulate(ChainParams(n=3, beta_a=0.5, beta_b=0.75), 20.0, seed=1, grid_samples=8)
    assert "acceptance_a" not in discrete.extra  # its samplers count no proposals


@pytest.mark.parametrize("model", ["discrete", "continuous"])
def test_merge_lists_per_replica_extra(monkeypatch, model):
    monkeypatch.setattr(occupation, "RESYNC_INTERVAL", 50)  # non-zero, unequal drifts
    if model == "discrete":
        runs = [simulate(ChainParams(n=3, beta_a=0.5, beta_b=0.75), 100.0, seed=s,
                         grid_samples=64) for s in (1, 2, 3)]
        keys = ("final_eta",)
    else:
        runs = [simulate_continuous(ChainParams(n=3, t_a=1.0, t_b=2.0), 20.0, seed=s,
                                    grid_samples=64) for s in (1, 2, 3)]
        keys = ("final_z", "acceptance_a", "acceptance_b")
    a, b, c = runs
    merged = a.merge(b)
    assert len(merged.series) == 2
    for key in keys:
        assert merged.extra[key] == [a.extra[key], b.extra[key]]
    drifts = [r.extra["max_resync_drift"] for r in runs]
    assert merged.extra["max_resync_drift"] == max(drifts[:2]) > 0.0
    assert merged.extra["resyncs"] == a.extra["resyncs"] + b.extra["resyncs"] > 2
    assert merged.extra["channel_events"] == {
        k: a.extra["channel_events"][k] + b.extra["channel_events"][k] for k in CHANNELS}
    assert sum(merged.extra["channel_events"].values()) == merged.event_count
    # Associative: both groupings list the three replicas in order.
    left, right = merged.merge(c), a.merge(b.merge(c))
    assert len(left.series) == len(right.series) == 3
    assert left.extra == right.extra
    for key in keys:
        assert left.extra[key] == [r.extra[key] for r in runs]
    assert left.extra["max_resync_drift"] == max(drifts)
