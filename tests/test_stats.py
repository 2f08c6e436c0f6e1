"""Statistical harness: autocorrelation times, GOF tests, profile reports."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from drivenchain.core import ChainParams, make_rng
from drivenchain.discrete_sim import simulate
from drivenchain.measure import (
    MixtureSpec,
    Model,
    geometric_pmf,
    moment_profile,
    sample_exact_discrete,
)
from drivenchain import stats
from drivenchain.occupation import IntHistogram, OccupationStats
from drivenchain.stats import (
    GofResult,
    chi_square_discrete,
    effective_sample_size,
    integrated_autocorr_time,
    ks_continuous,
    profile_report,
)


class TestAutocorrelation:
    def test_iid_series(self):
        x = make_rng(0).normal(size=40_000)
        assert integrated_autocorr_time(x) == pytest.approx(1.0, abs=0.08)

    def test_duplicated_series_doubles_tau(self):
        x = np.repeat(make_rng(1).normal(size=20_000), 2)
        assert integrated_autocorr_time(x) == pytest.approx(2.0, abs=0.15)

    def test_ar1_matches_theory(self):
        # AR(1) with coefficient a has tau = (1+a)/(1-a)
        a = 0.6
        rng = make_rng(2)
        n = 200_000
        eps = rng.normal(size=n)
        x = np.empty(n)
        x[0] = eps[0]
        for i in range(1, n):
            x[i] = a * x[i - 1] + eps[i]
        assert integrated_autocorr_time(x) == pytest.approx(4.0, rel=0.1)

    def test_constant_series(self):
        assert integrated_autocorr_time(np.ones(1000)) == 1.0

    def test_ess(self):
        x = np.repeat(make_rng(3).normal(size=5_000), 4)
        assert effective_sample_size(x) == pytest.approx(5_000, rel=0.15)


def scalar_tau(series) -> float:
    """One series at a time with a Python Geyer loop: the reference the block
    kernel must match bit for bit."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 8:
        return 1.0
    x = x - x.mean()
    var = float(x @ x) / n
    if var <= 0.0:
        return 1.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]
    tau = -1.0
    j = 0
    while 2 * j + 1 < n:
        pair = rho[2 * j] + rho[2 * j + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        j += 1
    return max(tau, 1.0)


def first_non_positive_pair(series) -> int:
    """Index of the first lag pair whose sum is <= 0 (the number of pairs if none)."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    acov = np.correlate(x, x, "full")[x.size - 1:]
    pairs = (acov[0:x.size - 1:2] + acov[1:x.size:2]) / acov[0]
    return int(np.argmax(np.append(pairs <= 0.0, True)))


def assert_block_matches_scalar(block):
    taus = integrated_autocorr_time(block)
    want = np.array([scalar_tau(row) for row in block])
    assert taus.shape == (len(block),)
    assert np.array_equal(taus, want), np.flatnonzero(taus != want)
    assert integrated_autocorr_time(block[0]) == want[0]


class TestAutocorrelationKernel:
    @pytest.mark.parametrize("length", [1, 5, 7])
    def test_short_series(self, length):
        block = make_rng(10).normal(size=(4, length))
        assert np.array_equal(integrated_autocorr_time(block), np.ones(4))
        assert_block_matches_scalar(block)

    @pytest.mark.parametrize("length", [8, 9, 1000, 1001])
    def test_odd_and_even_lengths(self, length):
        rng = make_rng(11)
        walks = rng.normal(size=(3, length)).cumsum(axis=1)
        assert_block_matches_scalar(np.vstack([walks, rng.normal(size=(3, length))]))

    def test_constant_rows(self):
        block = make_rng(12).normal(size=(5, 500))
        block[1] = 2.5
        block[3] = 0.0
        assert_block_matches_scalar(block)
        assert integrated_autocorr_time(block)[[1, 3]].tolist() == [1.0, 1.0]

    def test_first_non_positive_pair(self):
        # White noise: the pair after the first is often <= 0 and the sum
        # stops there, which for rho_1 < 0 leaves tau < 1 before the clamp.
        block = make_rng(13).normal(size=(12, 300))
        stops = [first_non_positive_pair(row) for row in block]
        assert 1 in stops
        assert_block_matches_scalar(block)

    @pytest.mark.parametrize("length", [64, 65])
    def test_pairs_positive_to_the_last_lag(self, length):
        # An alternating series has rho_k = (-1)^k (n - k) / n: every pair sums to 1/n.
        alternating = np.where(np.arange(length) % 2 == 0, 1.0, -1.0)
        block = np.vstack([alternating, 3.0 * alternating + 1.0])
        assert all(first_non_positive_pair(row) == length // 2 for row in block)
        assert_block_matches_scalar(block)

    def test_rows_beyond_one_chunk(self):
        length = 20_000
        per_chunk = stats._chunk_rows(length)
        rows = 2 * per_chunk + 1  # two full chunks and one row
        block = make_rng(14).normal(size=(rows, length)).cumsum(axis=1)
        assert_block_matches_scalar(block)

    def test_int64_rows(self):
        counts = make_rng(15).poisson(3.0, size=(6, 777)).cumsum(axis=1) % 11
        assert counts.dtype == np.int64
        assert_block_matches_scalar(counts)

    def test_effective_sample_size_per_row(self):
        block = make_rng(16).normal(size=(3, 400)).cumsum(axis=1)
        got = effective_sample_size(block)
        assert np.array_equal(got, [400 / scalar_tau(row) for row in block])
        assert effective_sample_size(block[2]) == got[2]

    def test_profile_errors_match_per_series_loop(self):
        # The report's errors from scalar references, composed exactly as
        # sqrt(sum_r se_r ** 2) / r over two replicas: a mean's from the series
        # variance and its Geyer time, a covariance's from the exact product
        # variance and the batch-means time of the centred product series.
        params = ChainParams(n=3, beta_a=0.5, beta_b=0.75)
        spec = MixtureSpec(params, Model.DISCRETE)
        parts = [simulate(params, t_max=300.0, seed=50 + i, grid_samples=512) for i in range(2)]
        st = parts[0].merge(parts[1])
        rep = profile_report(st, spec)
        mean = st.mean()
        product_variance = moment_profile(spec).product_variance

        def se(x):
            var = float(x.var())
            return 0.0 if var == 0.0 else math.sqrt(var * scalar_tau(x) / x.size)

        def se_cov(s, x, y):
            product = (s[:, x] - mean[x]) * (s[:, y] - mean[y])
            tau = scalar_batch_means_tau(product)
            return math.sqrt(float(product_variance[x, y]) * tau / product.size)

        want_mean = [math.sqrt(sum(se(s[:, x]) ** 2 for s in st.series)) / 2 for x in range(3)]
        want_cov = [math.sqrt(sum(se_cov(s, x, y) ** 2 for s in st.series)) / 2
                    for x in range(3) for y in range(x, 3)]
        assert rep.se_mean.tolist() == want_mean
        assert rep.se_cov.tolist() == want_cov
        assert rep.notes["autocorr_series"] == 2 * 3
        assert rep.notes["covariance_error"]["batches"] == stats.COV_BATCHES


def scalar_batch_means_tau(product) -> float:
    """One product series with a Python loop over its batches: the reference
    the report's batch-means times must match bit for bit."""
    size = product.size // stats.COV_BATCHES
    var = float(product.var())
    if size < 2 or var == 0.0:
        return 1.0
    means = np.array([product[k * size:(k + 1) * size].mean()
                      for k in range(stats.COV_BATCHES)])
    return max(size * float(means.var(ddof=1)) / var, 1.0)


class TestCovarianceErrors:
    """Covariance standard errors: sqrt(Var_exact tau / L) per replica, tau
    from COV_BATCHES batch means, 1 where batches or the series cannot give it."""

    PARAMS = ChainParams(n=3, beta_a=0.5, beta_b=0.75)
    SPEC = MixtureSpec(PARAMS, Model.DISCRETE)

    @pytest.mark.parametrize("grid", [1, 16, 63, 64, 200])
    def test_short_grids(self, grid):
        st = simulate(self.PARAMS, t_max=60.0, seed=9, grid_samples=grid)
        with np.errstate(all="raise"):  # no 0/0 and no division by zero anywhere
            rep = profile_report(st, self.SPEC)
        first, second = np.triu_indices(3)
        floor = np.sqrt(moment_profile(self.SPEC).product_variance[first, second] / grid)
        assert np.all(np.isfinite(rep.se_cov)) and np.all(np.isfinite(rep.z_cov))
        if grid < 2 * stats.COV_BATCHES:  # batches of one sample: tau = 1
            np.testing.assert_allclose(rep.se_cov, floor, rtol=1e-15)
        else:
            assert np.all(rep.se_cov >= floor * (1.0 - 1e-15))
            s, mean = st.series[0], st.mean()
            taus = [scalar_batch_means_tau((s[:, x] - mean[x]) * (s[:, y] - mean[y]))
                    for x, y in zip(first, second)]
            np.testing.assert_allclose(rep.se_cov, floor * np.sqrt(taus), rtol=1e-15)

    @pytest.mark.parametrize("length", [64, 3001])
    def test_frozen_sites(self, length):
        # Sites 1 and 2 never move, at values whose time average need not
        # round back to them: their products are constant, of variance 0 (the
        # batch ratio would be 0/0), and take tau = 1.
        draws = sample_exact_discrete(self.SPEC, make_rng(17), size=length).astype(float)
        draws[:, 0], draws[:, 1] = 0.1, 2.7
        st = _stats_from_iid(draws, "continuous")
        with np.errstate(all="raise"):
            rep = profile_report(st, self.SPEC)
        pv = moment_profile(self.SPEC).product_variance
        frozen = {(1, 1): pv[0, 0], (1, 2): pv[0, 1], (2, 2): pv[1, 1]}
        for pair, se in zip(rep.pairs, rep.se_cov.tolist()):
            if pair in frozen:
                assert se == pytest.approx(math.sqrt(frozen[pair] / length), rel=1e-15)
        assert np.all(np.isfinite(rep.z_cov)) and np.all(rep.se_cov > 0.0)

    def test_zero_and_constant_rows(self):
        block = make_rng(18).normal(size=(4, 256)).cumsum(axis=1)
        block[1] = 0.0
        block[2] = 0.375
        want = [scalar_batch_means_tau(row) for row in block]
        got = stats._batch_means_tau(block.copy())
        assert got.tolist() == want
        assert got[1] == got[2] == 1.0 and got[0] > 1.0


class TestChiSquare:
    def test_null_calibration(self):
        # synthetic i.i.d. data from the expected pmf itself: p-values uniform
        m = 1.5
        ps = []
        for s in range(80):
            rng = make_rng(1000 + s)
            draws = rng.geometric(1.0 / (1.0 + m), size=3_000) - 1
            w = np.bincount(draws).astype(float)
            g = chi_square_discrete(w, lambda v: geometric_pmf(m, v), 3_000.0)
            ps.append(g.p_value)
        ps = np.array(ps)
        assert sps.kstest(ps, "uniform").pvalue > 1e-3
        assert 0.0 < (ps < 0.2).mean() < 0.45

    def test_detects_wrong_mean(self):
        rng = make_rng(4)
        draws = rng.geometric(1.0 / 2.0, size=20_000) - 1  # mean 1
        w = np.bincount(draws).astype(float)
        g = chi_square_discrete(w, lambda v: geometric_pmf(1.6, v), 20_000.0)
        assert g.p_value < 1e-6

    def test_merges_sparse_tail(self):
        rng = make_rng(5)
        draws = rng.geometric(1.0 / 1.3, size=5_000) - 1
        w = np.bincount(draws, minlength=60).astype(float)
        g = chi_square_discrete(w, lambda v: geometric_pmf(0.3, v), 5_000.0)
        assert g.dof < 59  # sparse cells were merged

    def test_inconclusive_below_min_ess(self):
        g = chi_square_discrete(
            np.array([10.0, 5.0]), lambda v: geometric_pmf(1.0, v), 50.0
        )
        assert g.inconclusive and not g.passed(0.01)

    def test_empty_histogram(self):
        with pytest.raises(ValueError):
            chi_square_discrete(np.zeros(3), lambda v: geometric_pmf(1.0, v), 500.0)


class TestChiSquarePValue:
    """The p-value is ``scipy.special.chdtrc(dof, stat)``, the function
    ``scipy.stats.chi2.sf(stat, dof)`` calls: equal bit for bit, with no
    ``scipy.stats`` import on the discrete path."""

    @staticmethod
    def assert_bits_equal(dof, stat):
        from scipy.special import chdtrc

        got = np.asarray(chdtrc(dof, stat), dtype=float)
        want = np.asarray(sps.chi2.sf(stat, dof), dtype=float)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_edges_for_every_dof_to_500(self):
        dof = np.arange(1, 501)
        for stat in (0.0 * dof, np.full(500, 1e-300), np.full(500, 1e-12),
                     dof.astype(float), 10.0 * dof):
            self.assert_bits_equal(dof, stat)

    def test_drawn_grid(self):
        rng = make_rng(25)
        dof = rng.integers(1, 501, size=50_000)
        stat = dof * np.exp(rng.uniform(-12.0, 3.0, size=dof.size))
        self.assert_bits_equal(dof, stat)

    def test_gof_p_value_is_chi2_sf(self):
        for m, seed in [(1.0, 1), (1.0, 2), (1.05, 3), (1.2, 4)]:
            draws = make_rng(seed).geometric(1.0 / 2.0, size=4_000) - 1
            g = chi_square_discrete(np.bincount(draws).astype(float),
                                    lambda v: geometric_pmf(m, v), 4_000.0)
            assert g.p_value == float(sps.chi2.sf(g.statistic, g.dof))


class TestKs:
    def test_null_calibration(self):
        ps = []
        for s in range(60):
            rng = make_rng(2000 + s)
            draws = rng.exponential(1.5, size=2_000)
            g = ks_continuous(draws, sps.expon(scale=1.5).cdf, 2_000.0)
            ps.append(g.p_value)
        assert sps.kstest(np.array(ps), "uniform").pvalue > 1e-3

    def test_detects_wrong_scale(self):
        draws = make_rng(6).exponential(1.5, size=10_000)
        g = ks_continuous(draws, sps.expon(scale=1.0).cdf, 10_000.0)
        assert g.p_value < 1e-6

    def test_inconclusive_below_min_ess(self):
        g = ks_continuous(np.arange(50.0), sps.expon(scale=1.0).cdf, 20.0)
        assert g.inconclusive


def _stats_from_iid(draws: np.ndarray, model: str) -> OccupationStats:
    """Wrap i.i.d. exact-law draws as if they were a unit-rate trajectory."""
    n = draws.shape[1]
    hists = [IntHistogram() for _ in range(n)]
    if model == "discrete":
        for x in range(n):
            for v, w in enumerate(np.bincount(draws[:, x])):
                if w:
                    hists[x].add(v, float(w))
    return OccupationStats(
        n_sites=n,
        model=model,
        duration=float(len(draws)),
        event_count=len(draws),
        mean_acc=draws.sum(axis=0).astype(float),
        second_acc=draws.T.astype(float) @ draws.astype(float),
        hists=hists,
        series=[draws.astype(float)],
        series_dt=1.0,
    )


class TestProfileReport:
    def test_exact_sampler_scores_within_4_sigma(self):
        params = ChainParams(n=4, beta_a=0.5, beta_b=0.75)
        spec = MixtureSpec(params, Model.DISCRETE)
        draws = sample_exact_discrete(spec, make_rng(7), size=200_000)
        rep = profile_report(_stats_from_iid(draws, "discrete"), spec)
        assert rep.max_abs_z < 4.0

    def test_detects_wrong_exact_law(self):
        params = ChainParams(n=3, beta_a=0.5, beta_b=0.75)
        wrong = MixtureSpec(
            ChainParams(n=3, beta_a=0.6, beta_b=0.6), Model.DISCRETE
        )
        draws = sample_exact_discrete(
            MixtureSpec(params, Model.DISCRETE), make_rng(8), size=200_000
        )
        rep = profile_report(_stats_from_iid(draws, "discrete"), wrong)
        assert rep.max_abs_z > 10.0

    def test_infinite_z_is_the_maximum(self):
        # a site that never moved (se 0) but misses the exact mean has z = inf
        rep = stats.ProfileReport(
            sites=np.arange(1, 3), emp_mean=np.array([0.61, 0.0]), se_mean=np.array([0.1, 0.0]),
            exact_mean=np.ones(2), z_mean=np.array([-3.9, np.inf]), pairs=[(1, 1)],
            emp_cov=np.zeros(1), se_cov=np.ones(1), exact_cov=np.zeros(1),
            z_cov=np.array([np.nan]))
        assert rep.max_abs_z == math.inf
        rep.z_mean[1] = 2.0
        assert rep.max_abs_z == 3.9

    def test_se_shrinks_like_sqrt_time(self):
        # doubling ladder of run lengths: log-log slope of SE vs t is -1/2.
        # Grid count scales with t so the sampling interval stays below the
        # autocorrelation time (coarser grids only make the SE conservative).
        params = ChainParams(n=2, beta_a=0.5, beta_b=0.75)
        spec = MixtureSpec(params, Model.DISCRETE)
        lengths = [2_000.0, 4_000.0, 8_000.0, 16_000.0]
        ses = []
        for i, t in enumerate(lengths):
            st = simulate(params, t_max=t, seed=30 + i, grid_samples=int(4 * t))
            ses.append(profile_report(st, spec).se_mean.mean())
        slope = np.polyfit(np.log(lengths), np.log(ses), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_merged_replicas_match_single_run_moments(self):
        params = ChainParams(n=3, beta_a=0.5, beta_b=0.75)
        parts = [
            simulate(params, t_max=500.0, seed=40 + i, grid_samples=1024)
            for i in range(3)
        ]
        merged = parts[0].merge(parts[1]).merge(parts[2])
        assert merged.duration == pytest.approx(sum(p.duration for p in parts))
        assert np.allclose(
            merged.mean_acc, np.sum([p.mean_acc for p in parts], axis=0)
        )
        assert np.allclose(
            merged.second_acc, np.sum([p.second_acc for p in parts], axis=0)
        )
        # merge is associative/commutative on the accumulators
        other = parts[2].merge(parts[0]).merge(parts[1])
        assert np.allclose(merged.mean_acc, other.mean_acc)
        assert merged.duration == pytest.approx(other.duration)

    def test_requires_positive_duration(self):
        st = OccupationStats(n_sites=1, model="discrete")
        with pytest.raises(ValueError):
            profile_report(st, MixtureSpec(ChainParams(n=1), Model.DISCRETE))

    def test_zscores_match_per_entry_rule(self):
        # A zero standard error gives 0 for no miss and inf for any miss, else diff / se.
        diff = np.array([0.0, 1.5, -2.0, 0.3, -0.7, math.nan])
        se = np.array([0.0, 0.0, 0.0, 0.1, 0.25, 0.0])
        expect = [(0.0 if d == 0.0 else math.inf) if e == 0.0 else d / e
                  for d, e in zip(diff.tolist(), se.tolist())]
        assert stats._zscores(diff, se).tolist() == expect


class TestGofResult:
    def test_pass_semantics(self):
        g = GofResult("chi-square", 1.0, 3, 1e4, 0.5)
        assert g.passed(0.01) and not g.passed(0.6)
        bad = GofResult("chi-square", 1.0, 3, 1e4, float("nan"), inconclusive=True)
        assert not bad.passed(0.01)
