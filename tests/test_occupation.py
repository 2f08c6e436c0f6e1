"""The fused event engine against the reference stepper, and its accumulator
against a dense re-walk of the stepper's trajectory."""

import hashlib
import math
from bisect import bisect_left

import numpy as np
import pytest

from drivenchain import continuous_sim, discrete_sim, occupation
from drivenchain.continuous_sim import new_state_continuous, simulate_continuous
from drivenchain.core import ChainParams, make_rng
from drivenchain.discrete_sim import new_state, simulate
from drivenchain.occupation import CHANNELS, BinnedHistogram, IntHistogram, OccupationStats

D5 = ChainParams(n=5, beta_a=0.5, beta_b=0.75)
D65 = ChainParams(n=65, beta_a=0.5, beta_b=0.75)
C5 = ChainParams(n=5, t_a=1.0, t_b=2.0)
C65 = ChainParams(n=65, t_a=1.0, t_b=2.0)

# name -> (model, params, simulator keywords); burn_in=37.3 and 13.7 fall
# between events, n=65 runs on the Fenwick path.
CASES = {
    "discrete-burn0": ("discrete", D5, dict(t_max=300.0, burn_in=0.0, seed=32, grid_samples=512)),
    "discrete-mid": ("discrete", D5, dict(t_max=400.0, burn_in=37.3, seed=31, grid_samples=512)),
    "discrete-fenwick": ("discrete", D65, dict(t_max=60.0, burn_in=10.0, seed=33,
                                               grid_samples=256)),
    "discrete-eta0": ("discrete", D5, dict(t_max=300.0, seed=34, eta0=[3, 0, 7, 1, 2],
                                           grid_samples=512)),
    "continuous-burn0": ("continuous", C5, dict(t_max=60.0, burn_in=0.0, seed=35,
                                                grid_samples=512)),
    "continuous-mid": ("continuous", C5, dict(t_max=80.0, burn_in=13.7, seed=36,
                                              grid_samples=512)),
    "continuous-fenwick": ("continuous", C65, dict(t_max=10.0, burn_in=2.0, seed=36,
                                                   grid_samples=256)),
    "continuous-z0": ("continuous", C5, dict(t_max=60.0, seed=37, z0=[0.5, 1.0, 0.0, 2.5, 1.5],
                                             grid_samples=512)),
}


def run_engine(name: str) -> OccupationStats:
    model, params, kw = CASES[name]
    return (simulate if model == "discrete" else simulate_continuous)(params, **kw)


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


# Produced by the dense per-event accumulator these runs replaced:
# (event_count, sha256 of series[0] bytes, (injected_a, extracted_a, injected_b,
# extracted_b), sha256 of repr(final state)), each hash cut to 16 hex digits.
PINNED = {
    "discrete-burn0": (4164, "055d03e9a4cbb183", (300.0, 465.0, 947.0, 765.0), "c040ef405f193012"),
    "discrete-mid": (4896, "6389cf44cbdf6b26", (385.0, 481.0, 1186.0, 1086.0), "8a1e43aed43e5c63"),
    "discrete-fenwick": (1552, "25adbe9b7535c091", (73.0, 68.0, 152.0, 135.0), "1c3d4536df0631cf"),
    "discrete-eta0": (4267, "497ae3177f18c25c", (300.0, 418.0, 935.0, 819.0), "778718abaec62213"),
    "continuous-burn0": (9921, "1784f8d0950b2921", (55.547187668999584, 61.20601251619684,
                                                     127.41476607151174, 110.00563993310008),
                         "2a65873a981e08a3"),
    "continuous-mid": (13159, "d0a4e02ebe687db8", (78.6486513797708, 81.59697040747524,
                                                   147.44763595433147, 139.46897328112203),
                       "a94661a75234bc12"),
    "continuous-fenwick": (4554, "26c40db2aa961042", (5.875349512203456, 4.384232468036669,
                                                      20.462177404520645, 12.944521118793496),
                           "96985e1f286f42b2"),
    "continuous-z0": (9924, "007c331aa28596be", (70.4519849983999, 85.88596406018863,
                                                 120.94552257784532, 92.8293230699425),
                      "864a20001a66840d"),
}

# The float accumulators of the same runs: sha256 of mean_acc bytes, of
# second_acc bytes and of repr(list of histogram weight lists), 16 hex digits each.
PINNED_ACC = {
    "continuous-burn0": ("4162fd6f9e398ee5", "2f7ac3fc26c57aec", "82553d522b85001d"),
    "continuous-fenwick": ("f07aa31ff6d0b0ce", "849510e3c942aa52", "89ad31e91c566844"),
    "continuous-mid": ("28bc4f211a4269de", "21fcf763f0e17ec7", "31bdf3d358068357"),
    "continuous-z0": ("1c23758eb8c1e2af", "16ec4728e226cf94", "6166ae7e0bc07bc0"),
    "discrete-burn0": ("3fa44e4f20366cea", "2121c73da9e5fa6f", "34de824a555fe733"),
    "discrete-eta0": ("19ff96662db71f6b", "54277422cca32e65", "e01fec431afcd989"),
    "discrete-fenwick": ("d880093b31e7cc5d", "e3a28f64c102f459", "baec8583791962c3"),
    "discrete-mid": ("52a9494bc7ab583e", "5f857b8510656496", "23edd01d349bed0e"),
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
    second = np.array([[math.fsum(x[:, i] * x[:, j] * w) for j in range(n)] for i in range(n)])
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
    assert st.extra["selection"] == ("fenwick" if st.n_sites > 64 else "linear")


@pytest.mark.parametrize("name", sorted(CASES))
def test_lazy_accumulator_matches_dense_rewalk(reference_run, name):
    st = run_engine(name)
    start, _, _, events = run_stepper(name, reference_run)
    burn_in, t_max = window(name)
    assert len(events) == st.event_count

    w, x, mean, second = dense_walk(start, events, burn_in, t_max)
    assert math.fsum(w) == pytest.approx(st.duration, rel=1e-12)
    np.testing.assert_allclose(st.mean_acc, mean, rtol=1e-12, atol=0.0)
    # Pairs are judged on the Cauchy-Schwarz scale sqrt(M_xx M_yy) >= |M_xy|:
    # lazy increments carry rounding of the running integrals, so a pair that
    # barely overlaps in time is exact only relative to that scale.
    scale = np.sqrt(np.outer(np.diag(second), np.diag(second)))
    assert np.all(np.abs(st.second_acc - second) <= 1e-12 * scale)
    assert np.array_equal(st.second_acc, st.second_acc.T)
    for site, h in enumerate(st.hists):
        if isinstance(h, IntHistogram):
            expect = np.bincount(x[:, site].astype(int), weights=w)
        else:
            oracle = BinnedHistogram(h.lo, h.hi, h.n_bins)
            for v, wi in zip(x[:, site], w):
                oracle.add(v, wi)
            expect = np.array(oracle.weights)
        assert len(h.weights) == len(expect)
        np.testing.assert_allclose(h.weights, expect, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_integer_outputs_series_and_fluxes_are_pinned(name):
    st = run_engine(name)
    events, series_sha, fluxes, final_sha = PINNED[name]
    final = st.extra["final_eta" if CASES[name][0] == "discrete" else "final_z"]
    assert st.event_count == events
    assert _sha(st.series[0].tobytes()) == series_sha
    assert (st.injected_a, st.extracted_a, st.injected_b, st.extracted_b) == fluxes
    assert _sha(repr(list(final)).encode()) == final_sha


@pytest.mark.parametrize("name", sorted(PINNED_ACC))
def test_float_accumulators_are_pinned(name):
    st = run_engine(name)
    assert (_sha(st.mean_acc.tobytes()), _sha(st.second_acc.tobytes()),
            _sha(repr([h.weights for h in st.hists]).encode())) == PINNED_ACC[name]


def _stats(**kw) -> OccupationStats:
    base = dict(n_sites=2, model="continuous", mean_acc=np.array([1.0, 2.0]),
                injected_a=3.0, extracted_a=1.0, injected_b=0.5, extracted_b=0.5)
    base.update(kw)
    return OccupationStats(**base)


class TestCheckRun:
    def test_balanced_run_passes(self):
        _stats().check_run(0.0, [1.5, 0.5], 1e-9)
        _stats().check_run(1.0, [2.5, 0.5], 1e-9)  # started with mass 1

    def test_mass_imbalance_raises(self):
        with pytest.raises(RuntimeError, match="mass balance"):
            _stats().check_run(0.0, [1.5, 0.6], 1e-9)
        with pytest.raises(RuntimeError, match="mass balance"):
            _stats(model="discrete").check_run(0.0, [1.0, 1.0 + 1e-12], 0.0)

    def test_negative_values_raise(self):
        with pytest.raises(RuntimeError, match="negative"):
            _stats().check_run(0.0, [2.5, -0.5], 1e-9)
        with pytest.raises(RuntimeError, match="negative"):
            _stats(mean_acc=np.array([1.0, -1e-300])).check_run(0.0, [1.5, 0.5], 1e-9)


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
def test_simulators_reject_broken_mass_balance(model):
    leaked = []

    def leak(t, values):  # one unit appears at site 1 that no channel brought in
        if not leaked:
            values[0] += 1
            leaked.append(t)

    run, params = (simulate, D5) if model == "discrete" else (simulate_continuous, C5)
    # Site 1's next change heals its cached rate, so only the mass balance sees the leak.
    with pytest.raises(RuntimeError, match="mass balance"):
        run(params, 50.0, seed=1, grid_samples=64, observers=[leak])
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
        state, tol = new_state(ChainParams(n=3, beta_a=0.5, beta_b=0.75)), 0.0
        hists = lambda: [IntHistogram() for _ in range(3)]
    else:
        params = ChainParams(n=3, t_a=1.0, t_b=2.0)
        state, tol = new_state_continuous(params), 1e-9
        hists = lambda: [continuous_sim.energy_histogram(params, state.floor) for _ in range(3)]
    rng = make_rng(1)
    first = occupation.run_window(state, rng, hists(), model, 50.0, None, 64, (), tol)
    start = list(state.values)
    second = occupation.run_window(state, rng, hists(), model, 50.0, None, 64, (), tol)
    for st in (first, second):
        assert st.event_count > 100
        assert sum(st.extra["channel_events"].values()) == st.event_count
        assert st.extra["resyncs"] == 1
    net = second.injected_a + second.injected_b - second.extracted_a - second.extracted_b
    assert net == pytest.approx(sum(state.values) - sum(start), rel=0.0, abs=1e-9)


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
