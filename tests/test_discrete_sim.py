"""Particle-chain simulator: samplers, state, events, trajectories."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sps

from drivenchain import discrete_sim, occupation
from drivenchain.core import HARMONIC_CACHE_LIMIT, ChainParams, harmonic_number, make_rng
from drivenchain.discrete_sim import LogSeriesSampler, new_state, sample_k_harmonic, simulate
from drivenchain.measure import MixtureSpec, Model, geometric_pmf, moment_profile
from drivenchain.occupation import RESYNC_DRIFT_TOL

NEQ = ChainParams(n=5, beta_a=0.5, beta_b=0.75)


class TestSampleKHarmonic:
    def test_n1_always_one(self):
        rng = make_rng(0)
        assert all(sample_k_harmonic(1, rng) == 1 for _ in range(100))

    def test_n2_probabilities(self):
        # P(1) = (1/1)/H(2) = 2/3, P(2) = 1/3
        rng = make_rng(1)
        draws = np.array([sample_k_harmonic(2, rng) for _ in range(100_000)])
        phat = (draws == 1).mean()
        se = math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / len(draws))
        assert abs(phat - 2.0 / 3.0) < 4.0 * se

    def test_n4_chi_square_against_normalized_rates(self):
        # oracle: normalize {1, 1/2, 1/3, 1/4} -> (1/k)/H(4), H(4) = 25/12
        h4 = sum(1.0 / k for k in range(1, 5))
        expected_p = np.array([1.0 / k / h4 for k in range(1, 5)])
        rng = make_rng(2)
        draws = np.array([sample_k_harmonic(4, rng) for _ in range(200_000)])
        counts = np.bincount(draws, minlength=5)[1:]
        stat = ((counts - len(draws) * expected_p) ** 2 / (len(draws) * expected_p)).sum()
        assert sps.chi2.sf(stat, 3) > 0.01

    def test_large_n_bisection_branch(self):
        rng = make_rng(3)
        n = 200
        draws = np.array([sample_k_harmonic(n, rng) for _ in range(50_000)])
        assert draws.min() >= 1 and draws.max() <= n
        mean_expected = n / harmonic_number(n)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - mean_expected) < 4.0 * se

    @pytest.mark.parametrize("n", [65, 200, 5000])
    def test_bisection_returns_the_smallest_k_above_the_draw(self, n):
        # Above 64 the inverse CDF bisects the prefix sums: k is the smallest
        # with H(k) > u H(n), found here by a forward search over every k.
        total = harmonic_number(n)
        for u in [0.0, *make_rng(n).random(200).tolist(), 1.0 - 2.0 ** -53]:
            draws = SimpleNamespace(random=lambda: u)
            want = next((k for k in range(1, n + 1) if harmonic_number(k) > u * total), n)
            assert sample_k_harmonic(n, draws) == want

    def test_invalid(self):
        with pytest.raises(ValueError):
            sample_k_harmonic(0, make_rng(0))
        with pytest.raises(ValueError, match="cached up to"):  # no draw past the cache
            sample_k_harmonic(HARMONIC_CACHE_LIMIT + 1, make_rng(0))


class TestSampleKLogarithmic:
    """Reservoir batch sizes, drawn by ``LogSeriesSampler``."""

    def test_small_beta_returns_one(self):
        rng = make_rng(4)
        s = LogSeriesSampler(1e-6)
        draws = [s.draw(rng) for _ in range(5_000)]
        assert all(k == 1 for k in draws)

    def test_beta_half_first_mass(self):
        frozen = 0.7213475204444817  # 0.5 / log 2
        rng = make_rng(5)
        s = LogSeriesSampler(0.5)
        draws = np.array([s.draw(rng) for _ in range(200_000)])
        se = math.sqrt(frozen * (1.0 - frozen) / len(draws))
        assert abs((draws == 1).mean() - frozen) < 4.0 * se

    def test_mean_against_series_oracle(self):
        # oracle: truncated series sum_k k beta^k / (k L) = (beta/(1-beta)) / L
        beta = 0.5
        L = -math.log1p(-beta)
        oracle = sum(k * beta**k / (k * L) for k in range(1, 200))
        assert oracle == pytest.approx(1.4426950408889634, abs=1e-12)  # frozen
        rng = make_rng(6)
        s = LogSeriesSampler(beta)
        draws = np.array([s.draw(rng) for _ in range(300_000)])
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - oracle) < 3.0 * se

    def test_chi_square_against_pmf(self):
        beta = 0.75
        L = -math.log1p(-beta)
        rng = make_rng(7)
        s = LogSeriesSampler(beta)
        assert s.total_rate == L
        draws = np.array([s.draw(rng) for _ in range(150_000)])
        kmax = draws.max()
        p = np.array([beta**k / (k * L) for k in range(1, kmax + 1)])
        counts = np.bincount(draws, minlength=kmax + 1)[1:]
        expected = len(draws) * p
        expected[-1] += len(draws) * (1.0 - p.sum())
        keep = expected >= 5.0
        stat = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        stat += (counts[~keep].sum() - expected[~keep].sum()) ** 2 / max(
            expected[~keep].sum(), 1.0
        )
        assert sps.chi2.sf(stat, keep.sum()) > 0.01

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5])
    def test_invalid(self, beta):
        with pytest.raises(ValueError):
            LogSeriesSampler(beta)


class TestStateAndStep:
    def test_empty_chain_rates(self):
        p = ChainParams(n=1, beta_a=0.5, beta_b=0.75)
        st = new_state(p)
        lam_a, lam_b = math.log(2.0), math.log(4.0)
        assert st.inj_rate == pytest.approx(lam_a + lam_b, abs=1e-14)
        assert st.rate_sum == 0.0

    def test_two_site_rates(self):
        # eta = (3, 0): each site-1 channel fires at H(3) = 11/6
        p = ChainParams(n=2, beta_a=0.5, beta_b=0.75)
        st = new_state(p, eta0=[3, 0])
        assert st.site_rate[0] == pytest.approx(11.0 / 6.0, abs=1e-14)
        assert st.site_rate[1] == 0.0
        assert st.rate_sum == pytest.approx(11.0 / 6.0, abs=1e-14)
        assert st.inj_rate == pytest.approx(math.log(2.0) + math.log(4.0), abs=1e-14)

    def test_first_event_from_empty_is_injection(self, reference_run, same_run):
        p = ChainParams(n=3, beta_a=0.5, beta_b=0.75)
        first = []
        for seed in range(50):
            state = new_state(p)
            run = reference_run(state, make_rng(seed), 50.0, lambda st, r: r.events == 0 and (
                first.append((r.time, sum(st.values), r.injected_a + r.injected_b))))
            same_run(simulate(p, t_max=50.0, seed=seed, grid_samples=8), state, run)
        assert len(first) == 50
        for t, mass, injected in first:
            assert t > 0.0
            assert mass >= 1
            assert injected == mass

    def test_particle_conservation_bookkeeping(self):
        p = ChainParams(n=4, beta_a=0.5, beta_b=0.7)
        st = simulate(p, t_max=2_500.0, burn_in=0.0, seed=9, grid_samples=64)
        assert st.event_count >= 20_000
        injected = st.injected_a + st.injected_b
        extracted = st.extracted_a + st.extracted_b
        assert injected - extracted == sum(st.extra["final_eta"])  # exact integer identity

    def test_corrupted_rate_cache_is_hard_error(self, monkeypatch):
        real_new_state = discrete_sim.new_state

        def corrupted(params, eta0=None):
            state = real_new_state(params, eta0)
            state.site_rate[0] = 5.0  # rate cache says occupied, config says empty
            state.rate_sum = 5.0
            return state

        monkeypatch.setattr(discrete_sim, "new_state", corrupted)
        p = ChainParams(n=2, beta_a=0.5, beta_b=0.75)
        with pytest.raises(RuntimeError, match="removal channel"):
            simulate(p, t_max=50.0, seed=10, eta0=[0, 0], grid_samples=64)

    def test_rate_cache_drift_after_1e6_steps(self):
        # The first resync comes after RESYNC_INTERVAL = 1e6 events and
        # records the drift of the incrementally updated rate sum.
        assert occupation.RESYNC_INTERVAL == 1_000_000
        st = simulate(NEQ, t_max=80_000.0, seed=11, grid_samples=64)
        assert st.event_count >= 1_000_000
        assert 0.0 <= st.extra["max_resync_drift"] <= 1e-9

    def test_resync_records_drift(self, monkeypatch):
        monkeypatch.setattr(occupation, "RESYNC_INTERVAL", 50)
        st = simulate(NEQ, t_max=200.0, seed=24, grid_samples=256)
        assert st.event_count > 1000
        assert 0.0 <= st.extra["max_resync_drift"] <= RESYNC_DRIFT_TOL
        assert st.extra["resyncs"] == st.event_count // 50 + 1

    def test_resync_drift_past_tolerance_is_hard_error(self, monkeypatch):
        real_new_state = discrete_sim.new_state

        def corrupted(params, eta0=None):
            state = real_new_state(params, eta0)
            state.rate_sum *= 1.0 + 1e-6  # cached sum no longer matches the sites
            return state

        monkeypatch.setattr(occupation, "RESYNC_INTERVAL", 50)
        monkeypatch.setattr(discrete_sim, "new_state", corrupted)
        with pytest.raises(RuntimeError, match="drifted"):
            simulate(NEQ, t_max=200.0, seed=24, eta0=[4] * 5, grid_samples=256)


class TestSimulate:
    def test_determinism_same_seed(self):
        a = simulate(NEQ, t_max=800.0, seed=12, grid_samples=2048)
        b = simulate(NEQ, t_max=800.0, seed=12, grid_samples=2048)
        assert np.array_equal(a.series[0], b.series[0])
        assert np.array_equal(a.mean_acc, b.mean_acc)
        assert np.array_equal(a.second_acc, b.second_acc)
        assert a.event_count == b.event_count
        for ha, hb in zip(a.hists, b.hists):
            assert ha.weights == hb.weights

    def test_histogram_mass_equals_duration(self):
        st = simulate(NEQ, t_max=500.0, seed=13, grid_samples=1024)
        for h in st.hists:
            assert h.total() == pytest.approx(st.duration, rel=1e-12)

    def test_equilibrium_marginals_geometric(self):
        p = ChainParams(n=3, beta_a=0.6, beta_b=0.6)
        st = simulate(p, t_max=30_000.0, seed=14)
        rho = 1.5
        from drivenchain.stats import chi_square_discrete, effective_sample_size

        for x in range(3):
            ess = effective_sample_size(st.series[0][:, x])
            g = chi_square_discrete(
                st.hists[x], lambda v: geometric_pmf(rho, v), ess
            )
            assert g.p_value > 0.01, f"site {x + 1}: p={g.p_value}"

    def test_equilibrium_pair_covariance_vanishes(self):
        p = ChainParams(n=3, beta_a=0.6, beta_b=0.6)
        st = simulate(p, t_max=30_000.0, seed=15)
        from drivenchain.stats import profile_report

        rep = profile_report(st, MixtureSpec(p, Model.DISCRETE))
        off = [z for (x, y), z in zip(rep.pairs, rep.z_cov) if x != y]
        assert max(abs(z) for z in off) < 4.0

    def test_nonequilibrium_mean_profile(self):
        st = simulate(NEQ, t_max=40_000.0, seed=16)
        from drivenchain.stats import profile_report

        rep = profile_report(st, MixtureSpec(NEQ, Model.DISCRETE))
        assert np.all(np.abs(rep.z_mean) < 4.0)

    def test_injection_flux_matches_density(self):
        # mean injected mass per unit time from reservoir A is rho_a
        p = ChainParams(n=2, beta_a=0.5, beta_b=0.75)
        st = simulate(p, t_max=30_000.0, burn_in=0.0, seed=17, grid_samples=1024)
        assert st.injected_a / st.duration == pytest.approx(p.rho_a, rel=0.05)
        assert st.injected_b / st.duration == pytest.approx(p.rho_b, rel=0.05)

    def test_initial_condition_insensitivity(self):
        from drivenchain.stats import profile_report

        spec = MixtureSpec(NEQ, Model.DISCRETE)
        a = simulate(NEQ, t_max=20_000.0, seed=18)
        b = simulate(NEQ, t_max=20_000.0, seed=19, eta0=[12, 12, 12, 12, 12])
        ra, rb = profile_report(a, spec), profile_report(b, spec)
        joint = np.sqrt(ra.se_mean**2 + rb.se_mean**2)
        assert np.all(np.abs(ra.emp_mean - rb.emp_mean) < 4.0 * joint)

    def test_merge_is_exact_sum(self):
        a = simulate(NEQ, t_max=300.0, seed=20, grid_samples=512)
        b = simulate(NEQ, t_max=300.0, seed=21, grid_samples=512)
        m = a.merge(b)
        assert m.duration == a.duration + b.duration
        assert np.array_equal(m.mean_acc, a.mean_acc + b.mean_acc)
        assert np.array_equal(m.second_acc, a.second_acc + b.second_acc)
        assert m.event_count == a.event_count + b.event_count
        assert len(m.series) == 2
        assert m.injected_a == a.injected_a + b.injected_a
        for hm, ha, hb in zip(m.hists, a.hists, b.hists):
            la = np.pad(ha.weights, (0, max(0, len(hm.weights) - len(ha.weights))))
            lb = np.pad(hb.weights, (0, max(0, len(hm.weights) - len(hb.weights))))
            assert np.allclose(hm.weights, la + lb)

    def test_burn_in_validation(self):
        with pytest.raises(ValueError):
            simulate(NEQ, t_max=10.0, burn_in=10.0)

    def test_fenwick_branch_consistency(self):
        p = ChainParams(n=80, beta_a=0.4, beta_b=0.6)
        st = simulate(p, t_max=30.0, burn_in=0.0, seed=22, grid_samples=256)
        assert st.injected_a + st.injected_b - st.extracted_a - st.extracted_b == sum(
            st.extra["final_eta"]
        )
        for h in st.hists:
            assert h.total() == pytest.approx(st.duration, rel=1e-12)

    def test_observers_called_on_grid(self):
        seen = []
        simulate(
            NEQ, t_max=50.0, seed=23, grid_samples=64,
            observers=[lambda t, eta: seen.append((t, tuple(eta)))],
        )
        assert len(seen) == 64
        assert seen[0][0] < seen[-1][0] <= 50.0
