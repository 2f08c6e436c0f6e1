"""Exact-measure machinery: samplers, densities, generating functions, moments."""

import math

import numpy as np
import pytest
from scipy import integrate, stats as sps

from drivenchain.core import ChainParams, make_rng
from drivenchain.measure import (
    MixtureSpec,
    Model,
    exponential_pdf,
    geometric_pmf,
    marginal_cdf_continuous,
    marginal_pmf_discrete,
    mgf_exponential,
    mgf_geometric,
    mixture_density_continuous,
    mixture_density_discrete,
    moment_profile,
    order_stat_density,
    sample_exact_continuous,
    sample_exact_discrete,
    sample_ordered_profile,
)

NEQ = ChainParams(n=3, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=3.0)
DISC3 = MixtureSpec(NEQ, Model.DISCRETE)
CONT3 = MixtureSpec(NEQ, Model.CONTINUOUS)


def disc_spec(n, beta_a=0.5, beta_b=0.75):
    return MixtureSpec(ChainParams(n=n, beta_a=beta_a, beta_b=beta_b), Model.DISCRETE)


def cont_spec(n, t_a=1.0, t_b=3.0):
    return MixtureSpec(ChainParams(n=n, t_a=t_a, t_b=t_b), Model.CONTINUOUS)


class TestOrderedProfile:
    def test_sorted_and_in_range(self):
        m = sample_ordered_profile(DISC3, make_rng(0), size=1000)
        assert np.all(np.diff(m, axis=1) >= 0.0)
        assert m.min() >= 1.0 and m.max() <= 3.0

    def test_degenerate_interval(self):
        spec = disc_spec(4, beta_a=0.5, beta_b=0.5)
        m = sample_ordered_profile(spec, make_rng(1), size=10)
        assert np.all(m == 1.0)

    def test_n1_uniform(self):
        spec = disc_spec(1)
        m = sample_ordered_profile(spec, make_rng(2), size=50_000)[:, 0]
        assert sps.kstest(m, sps.uniform(loc=1.0, scale=2.0).cdf).pvalue > 0.01

    def test_order_stat_means_against_mc_oracle(self):
        # oracle: sorted uniforms drawn with an independent legacy generator
        n, lo, hi, draws = 5, 1.0, 3.0, 200_000
        rs = np.random.RandomState(99)
        oracle = np.sort(rs.uniform(lo, hi, size=(draws, n)), axis=1)
        om, ose = oracle.mean(axis=0), oracle.std(axis=0) / math.sqrt(draws)
        formula = lo + (hi - lo) * np.arange(1, n + 1) / (n + 1)
        assert np.all(np.abs(om - formula) < 4.0 * ose)
        spec = disc_spec(5)
        m = sample_ordered_profile(spec, make_rng(3), size=draws)
        se = m.std(axis=0) / math.sqrt(draws)
        assert np.all(np.abs(m.mean(axis=0) - formula) < 4.0 * se)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_sites_follow_beta_order_statistics(self, n):
        spec = disc_spec(n)
        m = sample_ordered_profile(spec, make_rng(4), size=100_000)
        u = (m - 1.0) / 2.0
        for x in range(1, n + 1):
            p = sps.kstest(u[:, x - 1], sps.beta(x, n - x + 1).cdf).pvalue
            assert p > 0.01, f"site {x}: p={p}"


class TestExactSamplers:
    def test_model_mismatch(self):
        with pytest.raises(ValueError):
            sample_exact_discrete(CONT3, make_rng(0))
        with pytest.raises(ValueError):
            sample_exact_continuous(DISC3, make_rng(0))

    def test_equilibrium_is_product_geometric(self):
        rho = 1.5  # beta = 0.6
        spec = disc_spec(3, beta_a=0.6, beta_b=0.6)
        draws = sample_exact_discrete(spec, make_rng(5), size=100_000)
        p_succ = 1.0 / (1.0 + rho)
        for x in range(3):
            counts = np.bincount(draws[:, x])
            kmax = len(counts)
            expected = len(draws) * geometric_pmf(rho, np.arange(kmax))
            # the open tail beyond the observed support joins the last cell
            expected[-1] += len(draws) * (1.0 - geometric_pmf(rho, np.arange(kmax)).sum())
            stat = ((counts - expected) ** 2 / expected).sum()
            p = sps.chi2.sf(stat, kmax - 1)
            assert p > 0.01, f"site {x + 1}: p={p}"
        assert abs(draws.mean() - rho) < 4.0 * draws.std() / math.sqrt(draws.size)

    def test_zero_probability_matches_pmf(self):
        # P(eta_x = 0 | m) = 1/(1+m); averaged over the profile this is the
        # mixture marginal at zero, checked for N=1 against the closed form.
        spec = disc_spec(1)
        draws = sample_exact_discrete(spec, make_rng(6), size=200_000)[:, 0]
        frozen = 0.34657359027997264  # (1/2) log 2
        phat = (draws == 0).mean()
        se = math.sqrt(frozen * (1 - frozen) / draws.size)
        assert abs(phat - frozen) < 4.0 * se

    def test_discrete_linear_mean_profile(self):
        spec = disc_spec(5)
        draws = sample_exact_discrete(spec, make_rng(7), size=400_000)
        exact = moment_profile(spec).means
        se = draws.std(axis=0) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 4.0 * se)

    def test_continuous_equilibrium_exponential(self):
        spec = cont_spec(2, t_a=1.5, t_b=1.5)
        draws = sample_exact_continuous(spec, make_rng(8), size=100_000)
        for x in range(2):
            p = sps.kstest(draws[:, x], sps.expon(scale=1.5).cdf).pvalue
            assert p > 0.01
        # exponential tail at the conditional level: P(z > t | m) = e^{-t/m}
        assert abs((draws[:, 0] > 1.5).mean() - math.exp(-1.0)) < 0.01

    def test_continuous_linear_mean_profile(self):
        spec = cont_spec(4)
        draws = sample_exact_continuous(spec, make_rng(9), size=400_000)
        exact = moment_profile(spec).means
        se = draws.std(axis=0) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 4.0 * se)


class TestElementaryLaws:
    def test_geometric_pmf_at_zero(self):
        assert geometric_pmf(1.0, 0) == pytest.approx(0.5, abs=1e-15)

    def test_geometric_pmf_normalization_and_mean(self):
        m = 2.5
        q = m / (1.0 + m)
        ks = np.arange(0, 400)
        pmf = geometric_pmf(m, ks)
        tail = q**400  # geometric tail of the omitted mass
        assert pmf.sum() == pytest.approx(1.0 - tail, abs=1e-12)
        assert (ks * pmf).sum() == pytest.approx(m, abs=1e-10)

    def test_geometric_pmf_domain(self):
        with pytest.raises(ValueError):
            geometric_pmf(0.0, 1)
        with pytest.raises(ValueError):
            geometric_pmf(1.0, -1)

    def test_geometric_pmf_log_space_large_k(self):
        v = geometric_pmf(1.0, 3000)
        assert 0.0 < v < 1e-300 or v == pytest.approx(0.5 * 0.5**3000)

    def test_exponential_pdf(self):
        assert exponential_pdf(2.0, 0.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            exponential_pdf(-1.0, 1.0)


class TestGeneratingFunctions:
    def test_geometric_normalization_point(self):
        for m in (0.5, 1.0, 4.0):
            assert mgf_geometric(m, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_geometric_at_zero_equals_pmf_at_zero(self):
        for m in (0.5, 2.0):
            assert mgf_geometric(m, 0.0) == pytest.approx(geometric_pmf(m, 0), abs=1e-15)

    def test_geometric_series_oracle(self):
        # oracle: truncated series sum_k pmf(k) lam^k
        m, lam = 2.0, 0.5
        oracle = sum(geometric_pmf(m, k) * lam**k for k in range(300))
        assert oracle == pytest.approx(0.5, abs=1e-12)  # frozen closed form
        assert mgf_geometric(m, lam) == pytest.approx(oracle, abs=1e-12)

    def test_geometric_domain(self):
        with pytest.raises(ValueError):
            mgf_geometric(2.0, -0.1)
        with pytest.raises(ValueError):
            mgf_geometric(2.0, 1.5)  # radius (1+m)/m = 1.5
        assert mgf_geometric(2.0, 1.49) > 0.0

    def test_exponential_values(self):
        assert mgf_exponential(3.0, 0.0) == pytest.approx(1.0)
        assert mgf_exponential(1.0, 0.5) == pytest.approx(2.0)

    def test_exponential_quadrature_oracle(self):
        # oracle: integral of (1/2) e^{-z/2} e^{-z}
        oracle, _ = integrate.quad(lambda z: 0.5 * math.exp(-1.5 * z), 0.0, np.inf)
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert mgf_exponential(2.0, -1.0) == pytest.approx(oracle, abs=1e-10)

    def test_exponential_domain(self):
        with pytest.raises(ValueError):
            mgf_exponential(2.0, 0.5)


class TestMixtureDensities:
    def test_n1_closed_form(self):
        d = mixture_density_discrete(disc_spec(1), [0])
        assert d.method == "quadrature"
        assert d.value == pytest.approx(0.34657359027997264, abs=1e-11)

    def test_n1_general_k_closed_form_oracle(self):
        # oracle: antiderivative of the geometric pmf in its mean,
        # A_k(m) = log(1+m) - sum_{j<=k} (m/(1+m))^j / j
        def A(k, m):
            u = m / (1.0 + m)
            return math.log1p(m) - sum(u**j / j for j in range(1, k + 1))

        spec = disc_spec(1)
        for k, frozen in ((3, 0.09396942361330596),):
            oracle = (A(k, 3.0) - A(k, 1.0)) / 2.0
            assert oracle == pytest.approx(frozen, abs=1e-14)
            assert mixture_density_discrete(spec, [k]).value == pytest.approx(
                oracle, abs=1e-11
            )

    def test_degenerate_interval_is_product(self):
        spec = disc_spec(3, beta_a=0.6, beta_b=0.6)
        d = mixture_density_discrete(spec, [0, 1, 2])
        assert d.method == "product"
        expected = float(np.prod([geometric_pmf(1.5, k) for k in (0, 1, 2)]))
        assert d.value == pytest.approx(expected, abs=1e-15)

    def test_n2_against_closed_form_oracle(self):
        # oracle: reduce the inner ordered coordinate with the antiderivative
        # A_k, leaving one adaptive integral (independent quad implementation)
        def A(k, m):
            u = m / (1.0 + m)
            return math.log1p(m) - sum(u**j / j for j in range(1, k + 1))

        def G(m, k):
            return (1.0 / (1.0 + m)) * (m / (1.0 + m)) ** k

        frozen = {
            (0, 0): 0.12011325347955033,
            (1, 0): 0.07182645833956404,
            (2, 3): 0.014280264582958975,
            (5, 1): 0.007116622783601014,
        }
        spec = disc_spec(2)
        for (k1, k2), val in frozen.items():
            oracle, _ = integrate.quad(
                lambda m2: G(m2, k2) * (A(k1, m2) - A(k1, 1.0)), 1.0, 3.0,
                epsabs=1e-13,
            )
            oracle *= 2.0 / 4.0
            assert oracle == pytest.approx(val, abs=1e-12)
            d = mixture_density_discrete(spec, [k1, k2], tol=1e-11)
            assert d.value == pytest.approx(val, abs=1e-10)

    def test_n2_monte_carlo_within_3_se_of_quadrature(self):
        spec = disc_spec(2)
        quad = mixture_density_discrete(spec, [0, 0], tol=1e-11)
        rng = make_rng(10)
        m = np.sort(rng.uniform(1.0, 3.0, size=(2_000_000, 2)), axis=1)
        vals = np.prod(1.0 / (1.0 + m), axis=1)
        mc, se = vals.mean(), vals.std() / math.sqrt(len(vals))
        assert abs(mc - quad.value) < 3.0 * se

    def test_mc_fallback_reports_method(self):
        spec = disc_spec(5)
        d = mixture_density_discrete(spec, [0] * 5, tol=1e-4, mc_samples=300_000, seed=3)
        assert d.method == "monte-carlo"
        assert d.samples > 0
        quadlike = mixture_density_discrete(disc_spec(4), [0] * 4, tol=1e-10)
        assert quadlike.method == "quadrature"

    @pytest.mark.parametrize("mc_samples", [0, -1])
    def test_mc_fallback_rejects_no_samples(self, mc_samples):
        with pytest.raises(ValueError, match="mc_samples"):
            mixture_density_discrete(disc_spec(5), [0] * 5, mc_samples=mc_samples)
        with pytest.raises(ValueError, match="mc_samples"):
            mixture_density_continuous(cont_spec(5), [0.0] * 5, mc_samples=mc_samples)

    def test_normalization_over_truncated_box(self):
        spec = disc_spec(2)
        K = 40
        total = 0.0
        for a in range(K + 1):
            for b in range(K + 1):
                total += mixture_density_discrete(spec, [a, b], tol=1e-9).value
        # mass outside the box is bounded by a union of dominating-geometric tails
        q = 0.75
        bound = 2.0 * q ** (K + 1)
        assert 1.0 - total == pytest.approx(0.0, abs=bound + 1e-7)

    def test_continuous_n1_closed_form(self):
        d = mixture_density_continuous(cont_spec(1), [0.0])
        assert d.value == pytest.approx(0.5 * math.log(3.0), abs=1e-11)

    def test_continuous_degenerate_product(self):
        spec = cont_spec(2, t_a=1.5, t_b=1.5)
        d = mixture_density_continuous(spec, [0.5, 2.0])
        expected = float(np.prod([exponential_pdf(1.5, z) for z in (0.5, 2.0)]))
        assert d.method == "product"
        assert d.value == pytest.approx(expected, abs=1e-15)

    def test_continuous_n2_vs_mc_oracle(self):
        spec = cont_spec(2)
        z = np.array([0.3, 1.7])
        quad = mixture_density_continuous(spec, z, tol=1e-11)
        rng = make_rng(11)
        m = np.sort(rng.uniform(1.0, 3.0, size=(2_000_000, 2)), axis=1)
        vals = np.prod(np.exp(-z / m) / m, axis=1)
        mc, se = vals.mean(), vals.std() / math.sqrt(len(vals))
        assert abs(mc - quad.value) < 3.0 * se

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mixture_density_discrete(disc_spec(2), [0, -1])
        with pytest.raises(ValueError):
            mixture_density_discrete(disc_spec(2), [0, 0, 0])
        with pytest.raises(ValueError):
            mixture_density_discrete(disc_spec(2), [0.5, 0.25])


class TestMarginals:
    def test_n1_reduces_to_uniform_mixture(self):
        spec = disc_spec(1)
        for k in (0, 1, 4):
            assert marginal_pmf_discrete(spec, 1, k) == pytest.approx(
                mixture_density_discrete(spec, [k]).value, abs=1e-10
            )

    def test_sums_to_one(self):
        spec = disc_spec(3)
        for x in (1, 2, 3):
            total = sum(marginal_pmf_discrete(spec, x, k) for k in range(140))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_empirical_marginal(self):
        spec = disc_spec(3)
        draws = sample_exact_discrete(spec, make_rng(12), size=1_000_000)[:, 1]
        counts = np.bincount(draws)
        kmax = len(counts)
        pk = np.array([marginal_pmf_discrete(spec, 2, k) for k in range(kmax)])
        expected = len(draws) * pk
        expected[-1] += len(draws) * (1.0 - pk.sum())
        keep = expected >= 5.0
        # roll the sparse tail into the last dense cell
        stat = (
            (counts[keep] - expected[keep]) ** 2 / expected[keep]
        ).sum() + (counts[~keep].sum() - expected[~keep].sum()) ** 2 / max(
            expected[~keep].sum(), 1e-9
        )
        p = sps.chi2.sf(stat, keep.sum() - 1)
        assert p > 0.01

    def test_out_of_range_site(self):
        with pytest.raises(ValueError):
            marginal_pmf_discrete(disc_spec(2), 3, 0)

    def test_continuous_marginal_density_and_cdf(self):
        spec = cont_spec(1)
        # N=1 closed-ish form from the uniform mixture (independent quad oracle)
        frozen_cdf = 0.4138946602015705
        oracle_cdf, _ = integrate.quad(
            lambda m: (1.0 - math.exp(-1.0 / m)) / 2.0, 1.0, 3.0
        )
        assert oracle_cdf == pytest.approx(frozen_cdf, abs=1e-12)
        assert marginal_cdf_continuous(spec, 1, 1.0) == pytest.approx(
            frozen_cdf, abs=1e-10
        )

    def test_continuous_cdf_monotone_to_one(self):
        spec = cont_spec(3)
        zs = np.linspace(0.0, 60.0, 40)
        F = marginal_cdf_continuous(spec, 2, zs)
        assert np.all(np.diff(F) >= -1e-12)
        assert F[0] == pytest.approx(0.0, abs=1e-12)
        assert F[-1] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n, sites", [(5, (1, 3, 5)), (65, (1, 17, 33, 65))])
    def test_marginals_match_scipy_pointwise(self, n, sites):
        # one vectorised call per site against one scipy quad per query point
        disc = MixtureSpec(ChainParams(n=n, beta_a=0.5, beta_b=0.75), Model.DISCRETE)
        cont = MixtureSpec(ChainParams(n=n, t_a=1.0, t_b=2.0), Model.CONTINUOUS)
        ks = np.arange(60)
        zs = np.linspace(0.0, 25.0, 1025)
        oracle = lambda f, lo, hi: integrate.quad(
            f, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        for x in sites:
            beta = lambda m: float(order_stat_density(1.0, 3.0, x, n, m))
            pmf = marginal_pmf_discrete(disc, x, ks)
            want = [oracle(lambda m: geometric_pmf(m, int(k)) * beta(m), 1.0, 3.0) for k in ks]
            np.testing.assert_allclose(pmf, want, rtol=0, atol=1e-12)
            beta = lambda m: float(order_stat_density(1.0, 2.0, x, n, m))
            cdf = marginal_cdf_continuous(cont, x, zs)
            want = [oracle(lambda m: -math.expm1(-z / m) * beta(m), 1.0, 2.0) for z in zs]
            np.testing.assert_allclose(cdf, want, rtol=0, atol=1e-12)


class TestMomentProfile:
    def test_n1_mean(self):
        mp = moment_profile(disc_spec(1))
        assert mp.means[0] == pytest.approx(2.0)  # (rho_a + rho_b) / 2

    def test_off_diagonal_positive_when_driven(self):
        mp = moment_profile(disc_spec(4))
        off = mp.covariance[~np.eye(4, dtype=bool)]
        assert np.all(off > 0.0)

    def test_degenerate_product_moments(self):
        mp = moment_profile(disc_spec(3, beta_a=0.6, beta_b=0.6))
        rho = 1.5
        assert np.allclose(mp.means, rho)
        assert np.allclose(mp.covariance, np.diag([rho + rho**2] * 3))
        mpc = moment_profile(cont_spec(3, t_a=2.0, t_b=2.0))
        assert np.allclose(mpc.covariance, np.diag([4.0] * 3))

    def test_profile_covariance_against_mc_oracle(self):
        # oracle: sorted-uniform covariances from an independent generator
        n, lo, hi, draws = 4, 1.0, 3.0, 300_000
        rs = np.random.RandomState(123)
        m = np.sort(rs.uniform(lo, hi, size=(draws, n)), axis=1)
        emp = np.cov(m, rowvar=False)
        x = np.arange(1, n + 1, dtype=float)
        formula = (
            (hi - lo) ** 2
            * np.minimum.outer(x, x)
            * (n + 1 - np.maximum.outer(x, x))
            / ((n + 1) ** 2 * (n + 2))
        )
        # SE of each covariance entry from the centred product's scatter
        c = m - m.mean(axis=0)
        for i in range(n):
            for j in range(n):
                se = (c[:, i] * c[:, j]).std() / math.sqrt(draws)
                assert abs(emp[i, j] - formula[i, j]) < 4.0 * se
        mp = moment_profile(disc_spec(4))
        off_mask = ~np.eye(4, dtype=bool)
        assert np.allclose(mp.covariance[off_mask], formula[off_mask], atol=1e-12)

    def test_discrete_variance_via_sampler(self):
        spec = disc_spec(3)
        draws = sample_exact_discrete(spec, make_rng(14), size=400_000)
        mp = moment_profile(spec)
        emp_var = draws.var(axis=0)
        # SE of a variance estimate ~ sqrt((m4 - var^2)/n)
        centered = draws - draws.mean(axis=0)
        se = np.sqrt((np.mean(centered**4, axis=0) - emp_var**2) / len(draws))
        assert np.all(np.abs(emp_var - np.diag(mp.covariance)) < 4.0 * se)
