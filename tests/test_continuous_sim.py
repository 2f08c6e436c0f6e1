"""Cutoff simulator for the energy chain: jump samplers, state, events, trajectories."""

import math

import numpy as np
import pytest
from scipy import integrate, stats as sps
from scipy.special import exp1

from drivenchain import continuous_sim, occupation
from drivenchain.continuous_sim import (
    InjectionSampler,
    default_epsilon,
    new_state_continuous,
    sample_alpha_removal,
    simulate_continuous,
)
from drivenchain.core import ChainParams, make_rng
from drivenchain.measure import MixtureSpec, Model
from drivenchain.occupation import RESYNC_DRIFT_TOL

NEQ = ChainParams(n=5, t_a=1.0, t_b=2.0)


class _FixedRng:
    """Stub generator returning a prescribed uniform sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestAlphaRemoval:
    def test_inversion_formula(self):
        # z = eps * e and U = 1/2 invert to alpha = eps * sqrt(e)
        eps = 1e-6
        z = eps * math.e
        alpha = sample_alpha_removal(eps, z, _FixedRng([0.5]))
        assert alpha == pytest.approx(eps * math.sqrt(math.e), rel=1e-12)

    def test_bounds_and_median(self):
        eps, z = 1e-6, 2.0
        rng = make_rng(0)
        draws = np.array([sample_alpha_removal(eps, z, rng) for _ in range(100_000)])
        assert draws.min() >= eps and draws.max() <= z
        med_expected = math.sqrt(eps * z)  # CDF inversion at 1/2
        assert np.median(draws) == pytest.approx(med_expected, rel=0.05)

    def test_log_transform_uniform(self):
        eps, z = 1e-6, 2.0
        rng = make_rng(1)
        draws = np.array([sample_alpha_removal(eps, z, rng) for _ in range(100_000)])
        u = np.log(draws / eps) / math.log(z / eps)
        assert sps.kstest(u, "uniform").pvalue > 0.01


class TestAlphaInjection:
    def test_mean_against_quadrature_oracle(self):
        t, eps = 1.3, 1e-6
        e1 = exp1(eps / t)
        # oracle: mass-weighted mean = int exp(-a/t) da / E1(eps/t)
        num, _ = integrate.quad(lambda a: math.exp(-a / t), eps, np.inf)
        oracle = num / e1
        assert oracle == pytest.approx(t * math.exp(-eps / t) / e1, rel=1e-10)
        rng = make_rng(2)
        s = InjectionSampler(t, eps)
        draws = np.array([s.draw(rng) for _ in range(300_000)])
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - oracle) < 3.0 * se

    def test_tail_probability_oracle(self):
        t, eps = 1.3, 1e-6
        ptail = exp1(1.0) / exp1(eps / t)
        rng = make_rng(3)
        s = InjectionSampler(t, eps)
        draws = np.array([s.draw(rng) for _ in range(300_000)])
        se = math.sqrt(ptail * (1.0 - ptail) / len(draws))
        assert abs((draws > t).mean() - ptail) < 3.0 * se

    def test_partition_probabilities_at_large_temperature(self):
        # with t >> eps the law approaches d(alpha)/alpha below the split:
        # check P(alpha <= c) against the exponential-integral masses
        t, eps = 1e6, 1e-3
        e1_all = exp1(eps / t)
        rng = make_rng(4)
        s = InjectionSampler(t, eps)
        draws = np.array([s.draw(rng) for _ in range(200_000)])
        for c in (1.0, 100.0, 1e4):
            expect = (e1_all - exp1(c / t)) / e1_all
            se = math.sqrt(expect * (1.0 - expect) / len(draws)) + 1e-12
            assert abs((draws <= c).mean() - expect) < 4.0 * se

    def test_acceptance_rate_floor(self):
        rng = make_rng(5)
        s = InjectionSampler(1.0, 1e-6)
        for _ in range(50_000):
            s.draw(rng)
        assert s.accepts / s.proposals >= 0.3

    def test_all_draws_above_cutoff(self):
        rng = make_rng(6)
        s = InjectionSampler(0.7, 1e-4)
        draws = [s.draw(rng) for _ in range(2_000)]
        assert min(draws) >= 1e-4

    def test_invalid(self):
        with pytest.raises(ValueError):
            InjectionSampler(0.0, 1e-6)
        with pytest.raises(ValueError):
            InjectionSampler(1.0, 0.0)


class TestStateAndStep:
    def test_drained_chain_rates(self):
        p = ChainParams(n=2, t_a=1.0, t_b=2.0)
        eps = 1e-6
        st = new_state_continuous(p, epsilon=eps)
        expected = exp1(eps / 1.0) + exp1(eps / 2.0)
        assert st.inj_rate == pytest.approx(expected, rel=1e-12)
        assert st.rate_sum == 0.0

    def test_single_site_rate_formula(self):
        p = ChainParams(n=1, t_a=1.0, t_b=2.0)
        eps = 1e-6
        z1 = 0.8
        st = new_state_continuous(p, epsilon=eps, z0=[z1])
        assert st.rate_sum == pytest.approx(math.log(z1 / eps), rel=1e-12)
        assert st.inj_rate == pytest.approx(exp1(eps / 1.0) + exp1(eps / 2.0),
                                            rel=1e-12)

    def test_first_event_from_empty_is_injection(self, reference_run, same_run):
        p = ChainParams(n=3, t_a=1.0, t_b=2.0)
        first = []
        state = new_state_continuous(p)
        run = reference_run(state, make_rng(7), 5.0, lambda st, r: r.events == 0 and (
            first.append((r.time, sum(st.values), r.injected_a + r.injected_b))))
        same_run(simulate_continuous(p, t_max=5.0, seed=7, grid_samples=8), state, run)
        (t, energy, injected), = first
        assert t > 0.0
        assert injected == pytest.approx(energy)

    def test_energy_conservation_bookkeeping(self):
        p = ChainParams(n=4, t_a=1.0, t_b=2.0)
        st = simulate_continuous(p, t_max=250.0, epsilon=1e-6, burn_in=0.0, seed=8,
                                 grid_samples=64)
        assert st.event_count >= 30_000
        injected = st.injected_a + st.injected_b
        extracted = st.extracted_a + st.extracted_b
        throughput = injected + extracted
        assert abs(injected - extracted - sum(st.extra["final_z"])) < 1e-9 * throughput

    def test_nonnegative_energy_always(self, reference_run, same_run):
        # Every event of the stepper, then the engine tied to the stepper bit for bit.
        p = ChainParams(n=2, t_a=0.5, t_b=0.5)
        negative = []
        state = new_state_continuous(p, epsilon=1e-5)
        run = reference_run(state, make_rng(9), 400.0,
                            lambda st, r: min(st.values) < 0.0 and negative.append(list(st.values)))
        assert run.events >= 20_000
        assert negative == []
        same_run(simulate_continuous(p, t_max=400.0, epsilon=1e-5, seed=9, grid_samples=64),
                 state, run)

    def test_removal_at_or_below_cutoff_is_hard_error(self, monkeypatch):
        # sample_alpha_removal needs z > epsilon; the engine's floor check guards it.
        real_new_state = continuous_sim.new_state_continuous

        def corrupted(params, epsilon=None, z0=None):
            state = real_new_state(params, epsilon, z0)
            # The rate cache says the drained middle site can fire, at a rate so far
            # above the injections (about 26) that the first event is its removal
            # with probability 1 - 1e-11, whatever the seed.
            state.site_rate[1] = 1e12
            state.rate_sum = 1e12
            return state

        monkeypatch.setattr(continuous_sim, "new_state_continuous", corrupted)
        for seed in (10, 11):
            with pytest.raises(RuntimeError, match="removal channel selected at site 1 holding 0.0"):
                simulate_continuous(ChainParams(n=3, t_a=1.0, t_b=2.0), t_max=50.0, seed=seed,
                                    grid_samples=64)

    def test_resync_records_drift(self, monkeypatch):
        monkeypatch.setattr(occupation, "RESYNC_INTERVAL", 50)
        st = simulate_continuous(NEQ, t_max=40.0, seed=17, grid_samples=256)
        assert st.event_count > 1000
        assert 0.0 <= st.extra["max_resync_drift"] <= RESYNC_DRIFT_TOL
        assert st.extra["resyncs"] == st.event_count // 50 + 1

    def test_resync_drift_past_tolerance_is_hard_error(self, monkeypatch):
        real_new_state = continuous_sim.new_state_continuous

        def corrupted(params, epsilon=None, z0=None):
            state = real_new_state(params, epsilon, z0)
            state.rate_sum *= 1.0 + 1e-6  # cached sum no longer matches the sites
            return state

        monkeypatch.setattr(occupation, "RESYNC_INTERVAL", 50)
        monkeypatch.setattr(continuous_sim, "new_state_continuous", corrupted)
        with pytest.raises(RuntimeError, match="drifted"):
            simulate_continuous(NEQ, t_max=40.0, seed=17, z0=[1.0] * 5, grid_samples=256)


class TestSimulateContinuous:
    def test_determinism(self):
        a = simulate_continuous(NEQ, t_max=150.0, seed=10, grid_samples=1024)
        b = simulate_continuous(NEQ, t_max=150.0, seed=10, grid_samples=1024)
        assert np.array_equal(a.series[0], b.series[0])
        assert np.array_equal(a.second_acc, b.second_acc)
        assert a.event_count == b.event_count

    def test_histogram_mass_equals_duration(self):
        st = simulate_continuous(NEQ, t_max=100.0, seed=11, grid_samples=512)
        for h in st.hists:
            assert h.total() == pytest.approx(st.duration, rel=1e-12)

    def test_equilibrium_exponential_marginals(self):
        p = ChainParams(n=3, t_a=1.5, t_b=1.5)
        st = simulate_continuous(p, t_max=4_000.0, seed=12)
        for x in range(3):
            zs = st.series[0][::16, x]
            p_val = sps.kstest(zs, sps.expon(scale=1.5).cdf).pvalue
            assert p_val > 0.01, f"site {x + 1}: p={p_val}"

    def test_nonequilibrium_mean_profile(self):
        from drivenchain.stats import profile_report

        st = simulate_continuous(NEQ, t_max=5_000.0, seed=13)
        rep = profile_report(st, MixtureSpec(NEQ, Model.CONTINUOUS))
        assert np.all(np.abs(rep.z_mean) < 4.0)

    def test_energy_flux_rate(self):
        # energy injected per unit time from the bath at T is ~ T e^{-eps/T}
        p = ChainParams(n=2, t_a=1.0, t_b=2.0)
        st = simulate_continuous(p, t_max=4_000.0, burn_in=0.0, seed=14,
                                 grid_samples=1024)
        assert st.injected_a / st.duration == pytest.approx(1.0, rel=0.05)
        assert st.injected_b / st.duration == pytest.approx(2.0, rel=0.05)

    def test_acceptance_rates_recorded(self):
        st = simulate_continuous(NEQ, t_max=50.0, seed=15, grid_samples=256)
        assert st.extra["acceptance_a"] >= 0.3
        assert st.extra["acceptance_b"] >= 0.3
        assert st.extra["epsilon"] == default_epsilon(NEQ)

    def test_cutoff_refinement_stability(self):
        p = ChainParams(n=2, t_a=1.0, t_b=2.0)
        coarse = simulate_continuous(p, t_max=3_000.0, epsilon=1e-4, seed=16)
        fine = simulate_continuous(p, t_max=3_000.0, epsilon=1e-5, seed=17)
        from drivenchain.stats import profile_report

        spec = MixtureSpec(p, Model.CONTINUOUS)
        rc, rf = profile_report(coarse, spec), profile_report(fine, spec)
        joint = np.sqrt(rc.se_mean**2 + rf.se_mean**2)
        diff = np.abs(rc.emp_mean - rf.emp_mean)
        assert np.all(diff < np.maximum(4.0 * joint, 0.01 * p.t_a))

    def test_epsilon_validation(self):
        for epsilon in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                new_state_continuous(NEQ, epsilon=epsilon)

    def test_epsilon_must_leave_the_histograms_a_range(self):
        # a run's site histograms bin (10 eps, 50 T_B]: empty from eps = 5 T_B up
        p = ChainParams(n=2, t_a=1.0, t_b=2.0)
        new_state_continuous(p, epsilon=9.99)
        for epsilon in (10.0, 1000.0):
            with pytest.raises(ValueError, match=r"epsilon = .* below 5 T_B = 10\.0"):
                new_state_continuous(p, epsilon=epsilon)
