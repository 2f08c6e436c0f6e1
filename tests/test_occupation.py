"""Flush-on-change occupation accumulator against a dense re-walk of the trajectory."""

import hashlib
import math

import numpy as np
import pytest

from drivenchain import occupation
from drivenchain.continuous_sim import simulate_continuous
from drivenchain.core import ChainParams
from drivenchain.discrete_sim import simulate
from drivenchain.occupation import BinnedHistogram, IntHistogram, OccupationStats

D5 = ChainParams(n=5, beta_a=0.5, beta_b=0.75)
D65 = ChainParams(n=65, beta_a=0.5, beta_b=0.75)
C5 = ChainParams(n=5, t_a=1.0, t_b=2.0)
C65 = ChainParams(n=65, t_a=1.0, t_b=2.0)

# name -> (model, run(), start state); burn_in=37.3 and 13.7 fall between events,
# n=65 runs on the Fenwick path.
CASES = {
    "discrete-burn0": ("discrete", lambda: simulate(
        D5, 300.0, burn_in=0.0, seed=32, grid_samples=512), [0] * 5),
    "discrete-mid": ("discrete", lambda: simulate(
        D5, 400.0, burn_in=37.3, seed=31, grid_samples=512), [0] * 5),
    "discrete-fenwick": ("discrete", lambda: simulate(
        D65, 60.0, burn_in=10.0, seed=33, grid_samples=256), [0] * 65),
    "discrete-eta0": ("discrete", lambda: simulate(
        D5, 300.0, seed=34, eta0=[3, 0, 7, 1, 2], grid_samples=512), [3, 0, 7, 1, 2]),
    "continuous-burn0": ("continuous", lambda: simulate_continuous(
        C5, 60.0, burn_in=0.0, seed=35, grid_samples=512), [0.0] * 5),
    "continuous-mid": ("continuous", lambda: simulate_continuous(
        C5, 80.0, burn_in=13.7, seed=36, grid_samples=512), [0.0] * 5),
    "continuous-fenwick": ("continuous", lambda: simulate_continuous(
        C65, 10.0, burn_in=2.0, seed=36, grid_samples=256), [0.0] * 65),
    "continuous-z0": ("continuous", lambda: simulate_continuous(
        C5, 60.0, seed=37, z0=[0.5, 1.0, 0.0, 2.5, 1.5], grid_samples=512),
        [0.5, 1.0, 0.0, 2.5, 1.5]),
}

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def record_events(after_each_event) -> list:
    """Record (event time, state after the event) for every jump a simulator makes."""
    events = []
    after_each_event(lambda state: events.append((state.time, list(state.values))))
    return events


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
def test_lazy_accumulator_matches_dense_rewalk(after_each_event, name):
    model, run, start = CASES[name]
    events = record_events(after_each_event)
    st = run()
    burn_in, t_max = st.extra["burn_in"], st.extra["t_max"]
    assert len(events) == st.event_count
    final = st.extra["final_eta" if model == "discrete" else "final_z"]
    assert events[-1][1] == final

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
    model, run, _ = CASES[name]
    st = run()
    events, series_sha, fluxes, final_sha = PINNED[name]
    final = st.extra["final_eta" if model == "discrete" else "final_z"]
    assert st.event_count == events
    assert _sha(st.series[0].tobytes()) == series_sha
    assert (st.injected_a, st.extracted_a, st.injected_b, st.extracted_b) == fluxes
    assert _sha(repr(list(final)).encode()) == final_sha


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


@pytest.mark.parametrize("model", ["discrete", "continuous"])
def test_simulators_reject_broken_mass_balance(after_each_event, model):
    def leaky(state):  # books one unit of injection that never arrives
        if state.events == 100:
            state.injected_a += 1

    after_each_event(leaky)
    with pytest.raises(RuntimeError, match="mass balance"):
        if model == "discrete":
            simulate(D5, 50.0, seed=1, grid_samples=64)
        else:
            simulate_continuous(C5, 20.0, seed=1, grid_samples=64)


@pytest.mark.parametrize("model", ["discrete", "continuous"])
def test_short_run_checks_its_rate_cache(after_each_event, model):
    # Far fewer events than RESYNC_INTERVAL: only the resync at the end can see this.
    def corrupt(state):
        if state.events == 100:
            state.rate_sum *= 1.0 + 1e-6

    if model == "discrete":
        run = lambda: simulate(D5, 50.0, seed=1, grid_samples=64)
    else:
        run = lambda: simulate_continuous(C5, 20.0, seed=1, grid_samples=64)
    assert 100 < run().event_count < occupation.RESYNC_INTERVAL
    after_each_event(corrupt)
    with pytest.raises(RuntimeError, match="drifted"):
        run()


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
    assert merged.replicas == 2
    for key in keys:
        assert merged.extra[key] == [a.extra[key], b.extra[key]]
    drifts = [r.extra["max_resync_drift"] for r in runs]
    assert merged.extra["max_resync_drift"] == max(drifts[:2]) > 0.0
    assert merged.extra["t_max"] == a.extra["t_max"]
    # Associative: both groupings list the three replicas in order.
    left, right = merged.merge(c), a.merge(b.merge(c))
    assert left.replicas == right.replicas == 3
    assert left.extra == right.extra
    for key in keys:
        assert left.extra[key] == [r.extra[key] for r in runs]
    assert left.extra["max_resync_drift"] == max(drifts)
