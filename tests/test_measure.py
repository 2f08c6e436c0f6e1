"""Exact-measure machinery: samplers, densities, generating functions, moments."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from scipy import integrate, stats as sps

from drivenchain import measure
from drivenchain.core import ChainParams, make_rng
from drivenchain.measure import (
    MixtureSpec,
    Model,
    exponential_pdf,
    geometric_pmf,
    marginal_cdf_continuous,
    marginal_pmf_discrete,
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

    @pytest.mark.parametrize("k", [0.5, [0, 1.5], math.nan])
    def test_geometric_pmf_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="geometric_pmf needs integer k"):
            geometric_pmf(1.0, k)

    def test_marginal_pmf_rejects_non_integer_k(self):
        with pytest.raises(ValueError, match="geometric_pmf needs integer k"):
            marginal_pmf_discrete(disc_spec(2), 1, 0.5)
        assert marginal_pmf_discrete(disc_spec(2), 1, 2.0) == marginal_pmf_discrete(
            disc_spec(2), 1, 2)

    def test_geometric_pmf_log_space_large_k(self):
        v = geometric_pmf(1.0, 3000)
        assert 0.0 < v < 1e-300 or v == pytest.approx(0.5 * 0.5**3000)

    def test_exponential_pdf(self):
        assert exponential_pdf(2.0, 0.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            exponential_pdf(-1.0, 1.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: exponential_pdf(1.0, math.nan), "exponential_pdf needs z >= 0"),
        (lambda: exponential_pdf(math.nan, 1.0), "exponential_pdf needs m > 0"),
        (lambda: exponential_pdf(math.inf, 1.0), "exponential_pdf needs m > 0"),
        (lambda: geometric_pmf(math.nan, 1), "geometric_pmf needs m > 0"),
        (lambda: geometric_pmf([1.0, math.inf], 1), "geometric_pmf needs m > 0"),
    ], ids=["pdf-nan-z", "pdf-nan-m", "pdf-inf-m", "pmf-nan-m", "pmf-inf-m"])
    def test_laws_reject_nan_and_infinite_means(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_monte_carlo_density_rejects_a_nan_energy(self):
        # It returned DensityEstimate(nan, nan, "monte-carlo").
        with pytest.raises(ValueError, match="exponential_pdf needs z >= 0"):
            mixture_density_continuous(cont_spec(5), [math.nan, 1.0, 1.0, 1.0, 1.0],
                                       mc_samples=100)

    def test_marginal_rejects_a_nan_energy(self):
        # It failed deep in the quadrature with a non-finite integrand.
        with pytest.raises(ValueError, match="exponential_pdf needs z >= 0"):
            marginal_cdf_continuous(cont_spec(2), 1, math.nan)

    @pytest.mark.parametrize("model, n, call", [
        (Model.DISCRETE, 2, lambda spec: mixture_density_discrete(spec, [1, 2])),
        (Model.DISCRETE, 5, lambda spec: mixture_density_discrete(spec, [0, 1, 0, 2, 1],
                                                                  mc_samples=10)),
        (Model.DISCRETE, 2, lambda spec: marginal_pmf_discrete(spec, 1, [0, 3])),
        (Model.CONTINUOUS, 2, lambda spec: mixture_density_continuous(spec, [0.5, 1.0])),
        (Model.CONTINUOUS, 5, lambda spec: mixture_density_continuous(spec, [0.5] * 5,
                                                                      mc_samples=10)),
        (Model.CONTINUOUS, 3, lambda spec: marginal_cdf_continuous(spec, 1, [0.5, 1.0])),
    ])
    def test_interval_endpoint_zero_is_rejected(self, model, n, call):
        # The densities evaluate the laws unchecked inside the integrators;
        # their entry points must still reject a mean of 0 at the interval's end.
        params = types.SimpleNamespace(n=n, rho_a=0.0, rho_b=1.0, t_a=0.0, t_b=1.0)
        with pytest.raises(ValueError, match="needs m > 0"):
            call(MixtureSpec(params, model))


ENTRY_ARGS = [
    (sample_exact_discrete, lambda: (make_rng(0),)),
    (sample_exact_continuous, lambda: (make_rng(0),)),
    (mixture_density_discrete, lambda: ([0, 1, 2],)),
    (mixture_density_continuous, lambda: ([0.5, 1.0, 2.0],)),
    (marginal_pmf_discrete, lambda: (1, [0, 1])),
    (marginal_cdf_continuous, lambda: (1, [0.5, 1.0])),
]


@pytest.mark.parametrize("entry, args", ENTRY_ARGS, ids=[e.__name__ for e, _ in ENTRY_ARGS])
def test_entry_rejects_the_other_models_spec(entry, args):
    # Each *_discrete/*_continuous entry names its model; the other model's
    # spec is a ValueError, never a quiet evaluation of the wrong site law.
    own = Model.DISCRETE if entry.__name__.endswith("_discrete") else Model.CONTINUOUS
    (other,) = set(Model) - {own}
    with pytest.raises(ValueError, match=f"spec.model must be {own.name}"):
        entry(MixtureSpec(NEQ, other), *args())


def mgf(model, m, s):
    """The site generating function 1 / (1 + c(s) m), its domain checked at m."""
    model.validate_mgf_arguments(s, m)
    return 1.0 / (1.0 + model.mgf_coefficient(s) * m)


class TestGeneratingFunctions:
    def test_geometric_normalization_point(self):
        for m in (0.5, 1.0, 4.0):
            assert mgf(Model.DISCRETE, m, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_geometric_at_zero_equals_pmf_at_zero(self):
        for m in (0.5, 2.0):
            assert mgf(Model.DISCRETE, m, 0.0) == pytest.approx(geometric_pmf(m, 0), abs=1e-15)

    def test_geometric_series_oracle(self):
        # oracle: truncated series sum_k pmf(k) lam^k
        m, lam = 2.0, 0.5
        oracle = sum(geometric_pmf(m, k) * lam**k for k in range(300))
        assert oracle == pytest.approx(0.5, abs=1e-12)  # frozen closed form
        assert mgf(Model.DISCRETE, m, lam) == pytest.approx(oracle, abs=1e-12)

    def test_geometric_domain(self):
        with pytest.raises(ValueError):
            mgf(Model.DISCRETE, 2.0, -0.1)
        with pytest.raises(ValueError):
            mgf(Model.DISCRETE, 2.0, 1.5)  # radius (1+m)/m = 1.5
        assert mgf(Model.DISCRETE, 2.0, 1.49) > 0.0

    def test_exponential_values(self):
        assert mgf(Model.CONTINUOUS, 3.0, 0.0) == pytest.approx(1.0)
        assert mgf(Model.CONTINUOUS, 1.0, 0.5) == pytest.approx(2.0)

    def test_exponential_quadrature_oracle(self):
        # oracle: integral of (1/2) e^{-z/2} e^{-z}
        oracle, _ = integrate.quad(lambda z: 0.5 * math.exp(-1.5 * z), 0.0, np.inf)
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert mgf(Model.CONTINUOUS, 2.0, -1.0) == pytest.approx(oracle, abs=1e-10)

    def test_exponential_domain(self):
        with pytest.raises(ValueError):
            mgf(Model.CONTINUOUS, 2.0, 0.5)


class TestMixtureSpec:
    def test_model_given_by_name(self):
        p = ChainParams(n=2, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
        spec = MixtureSpec(p, "discrete")
        assert spec.model is Model.DISCRETE and spec == MixtureSpec(p, Model.DISCRETE)
        assert spec.interval == (p.rho_a, p.rho_b) == (1.0, 3.0)
        assert moment_profile(spec).means == pytest.approx([5.0 / 3.0, 7.0 / 3.0], abs=1e-15)
        assert MixtureSpec(p, "continuous").interval == (1.0, 2.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            MixtureSpec(NEQ, "bogus")


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
        assert d.method == "quadrature"
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
        assert d.samples == 300_000  # every draw asked for, whatever tol
        quadlike = mixture_density_discrete(disc_spec(4), [0] * 4, tol=1e-10)
        assert quadlike.method == "quadrature"

    @pytest.mark.parametrize("density, spec, config", [
        (mixture_density_discrete, disc_spec(5), [0, 1, 0, 2, 1]),
        (mixture_density_continuous, cont_spec(5), [0.5, 1.0, 0.2, 2.5, 1.5]),
    ])
    def test_monte_carlo_matches_hand_drawn_batches(self, monkeypatch, density, spec, config):
        # Oracle: the batches of 1000, 1000 and 500 profiles drawn by hand
        # and their product kernels summed in order.
        monkeypatch.setattr(measure, "MC_BATCH", 1000)
        law = spec.model.site.law
        rng = make_rng(3)
        total = total_sq = 0.0
        for b in (1000, 1000, 500):
            vals = np.prod(law(sample_ordered_profile(spec, rng, b), np.asarray(config)), axis=1)
            total += vals.sum()
            total_sq += (vals * vals).sum()
        mean = total / 2500
        d = density(spec, config, mc_samples=2500, seed=3)
        assert d.method == "monte-carlo" and d.samples == 2500
        assert d.value == mean
        assert d.error == math.sqrt(max(total_sq / 2500 - mean * mean, 0.0) / 2500)

    @pytest.mark.parametrize("density, spec, config", [
        (mixture_density_discrete, disc_spec(5), [0, 1, 0, 2, 1]),
        (mixture_density_continuous, cont_spec(5), [0.5, 1.0, 0.2, 2.5, 1.5]),
    ])
    def test_five_sites_by_quadrature_match_monte_carlo(self, density, spec, config):
        quad = density(spec, config)
        assert quad.method == "quadrature" and quad.samples == 0
        assert 0.0 <= quad.error <= 1e-10
        mc = density(spec, config, mc_samples=1_000_000, seed=4)
        assert mc.method == "monte-carlo" and mc.samples == 1_000_000
        assert abs(quad.value - mc.value) < 4.0 * mc.error, (quad, mc)

    def test_explicit_mc_samples_run_monte_carlo_within_the_limit(self):
        d = mixture_density_continuous(cont_spec(3), [0.5, 1.0, 2.0], mc_samples=2000, seed=1)
        assert d.method == "monte-carlo" and d.samples == 2000

    def test_beyond_the_limit_without_mc_samples_is_an_error(self, monkeypatch):
        # Monte Carlo runs only on request: no count beyond the limit is a
        # ValueError raised before any profile is drawn.
        def no_draw(*args, **kwargs):
            raise AssertionError("drew profiles")

        monkeypatch.setattr(measure, "profile_monte_carlo", no_draw)
        assert measure.QUADRATURE_MAX_SITES == 5
        for density, spec, config in ((mixture_density_discrete, disc_spec(6), [0] * 6),
                                      (mixture_density_continuous, cont_spec(6), [1.0] * 6)):
            with pytest.raises(ValueError, match="mc_samples"):
                density(spec, config)

    @pytest.mark.parametrize("mc_samples", [0, 1, -1])
    def test_mc_fallback_rejects_no_samples(self, mc_samples):
        # one sample has no standard error: its error would read 0
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
        assert d.method == "quadrature"
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


class TestDensityTables:
    """An (n, K) grid gives the whole (K,)*n table from one ladder call."""

    def test_n2_table_matches_every_single_configuration(self):
        spec = disc_spec(2)
        ks = np.arange(9)
        table = mixture_density_discrete(spec, np.tile(ks, (2, 1)), tol=1e-11)
        assert table.method == "quadrature" and table.value.shape == (9, 9)
        for a in ks:
            for b in ks:
                one = mixture_density_discrete(spec, [a, b], tol=1e-11).value
                assert table.value[a, b] == pytest.approx(one, rel=1e-14)

    def test_n3_rows_are_per_site_values(self):
        spec = disc_spec(3)
        grid = np.array([[0, 2, 5, 9], [1, 3, 4, 7], [0, 6, 8, 12]])
        table = mixture_density_discrete(spec, grid, tol=1e-11).value
        assert table.shape == (4, 4, 4)
        for i, j, k in [(0, 0, 0), (3, 1, 2), (1, 3, 0), (2, 2, 3), (3, 3, 3), (0, 2, 1)]:
            eta = [grid[0, i], grid[1, j], grid[2, k]]
            one = mixture_density_discrete(spec, eta, tol=1e-11).value
            assert table[i, j, k] == pytest.approx(one, rel=1e-14)

    def test_continuous_table(self):
        spec = cont_spec(2)
        grid = np.array([[0.0, 0.7, 2.5], [0.3, 1.9, 4.0]])
        table = mixture_density_continuous(spec, grid, tol=1e-11).value
        for i in range(3):
            for j in range(3):
                one = mixture_density_continuous(spec, [grid[0, i], grid[1, j]], tol=1e-11)
                assert table[i, j] == pytest.approx(one.value, rel=1e-14)

    def test_degenerate_interval_gives_the_product_table(self):
        spec = disc_spec(2, beta_a=0.6, beta_b=0.6)
        ks = np.arange(4)
        d = mixture_density_discrete(spec, np.tile(ks, (2, 1)))
        pmf = geometric_pmf(spec.interval[0], ks)
        assert d.method == "quadrature"
        np.testing.assert_allclose(d.value, np.multiply.outer(pmf, pmf), rtol=1e-15, atol=0)

    def test_grid_needs_quadrature(self):
        with pytest.raises(ValueError, match="grid"):
            mixture_density_discrete(disc_spec(6), np.zeros((6, 2), dtype=int))
        with pytest.raises(ValueError, match="grid"):
            mixture_density_discrete(disc_spec(3), np.zeros((3, 2), dtype=int), mc_samples=100)
        with pytest.raises(ValueError, match="shape"):
            mixture_density_discrete(disc_spec(2), np.zeros((3, 2), dtype=int))


    def test_table_above_the_cap_is_rejected_before_it_is_built(self):
        # A (4, 40) grid asks for 40^4 = 2.56M entries, 10 GB of Chebyshev
        # values at the top degree; the check runs before any array is made.
        assert 40**4 > measure.MAX_TABLE_ENTRIES == 2**18
        grid = np.tile(np.arange(40), (4, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_TABLE_ENTRIES"):
                mixture_density_discrete(disc_spec(4), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert mixture_density_discrete(disc_spec(2), np.tile(np.arange(512), (2, 1)),
                                        tol=1e-8).value.shape == (512, 512)


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

    def test_degenerate_interval_is_the_site_law(self):
        # rho_a == rho_b (T_A == T_B): every site has the one site law, with
        # no quadrature over the profile.
        disc = disc_spec(3, beta_a=0.6, beta_b=0.6)
        rho = disc.params.rho_a
        ks = np.arange(30)
        for x in (1, 3):
            assert marginal_pmf_discrete(disc, x, ks).tolist() == geometric_pmf(rho, ks).tolist()
        cont = cont_spec(3, t_a=1.5, t_b=1.5)
        zs = np.array([0.0, 0.1, 1.5, 7.0])
        for x in (1, 3):
            np.testing.assert_allclose(marginal_cdf_continuous(cont, x, zs),
                                       1.0 - np.exp(-zs / 1.5), rtol=1e-15, atol=0.0)

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

    @pytest.mark.parametrize("spec", [disc_spec(1), disc_spec(4), disc_spec(65), cont_spec(3),
                                      cont_spec(7, t_a=0.25, t_b=4.0),
                                      disc_spec(3, beta_a=0.6, beta_b=0.6)])
    def test_covariance_bytes_of_the_variance_slope_rule(self, spec):
        # The diagonal reads the site's moment table; its arithmetic is the
        # former slope * m + 2 E[m^2] - m^2 with slope 1 (counts) or 0 (energies).
        lo, hi = spec.interval
        n = spec.params.n
        x = np.arange(1, n + 1, dtype=float)
        means = lo + (hi - lo) * x / (n + 1)
        e_m2 = means**2 + (hi - lo) ** 2 * (x * (n + 1 - x) / ((n + 1) ** 2 * (n + 2)))
        slope = 1.0 if spec.model is Model.DISCRETE else 0.0
        cov = moment_profile(spec).covariance
        assert np.array_equal(np.diag(cov), slope * means + 2.0 * e_m2 - means**2)


def sympy_product_variance(spec):
    """Var((v_x - mu_x)(v_y - mu_y)) by exact integration over the ordered box,
    the site moments taken from the generating function, as an (n, n) float table."""
    sympy = pytest.importorskip("sympy")
    lo, hi = (sympy.Rational(v) for v in spec.interval)
    n = spec.params.n
    t, m = sympy.symbols("t m")
    mgf = 1 / (1 + m * (1 - sympy.exp(t))) if spec.model is Model.DISCRETE else 1 / (1 - m * t)
    raw = [sympy.diff(mgf, t, k).subs(t, 0) for k in range(5)]
    ms = sympy.symbols(f"m1:{n + 1}")

    def expect(f):  # over lo <= m_1 <= ... <= m_n <= hi, density n! / (hi - lo)^n
        for x in range(n):
            f = sympy.integrate(f, (ms[x], lo, ms[x + 1] if x + 1 < n else hi))
        return sympy.factorial(n) * f / (hi - lo) ** n

    mu = [expect(ms[x]) for x in range(n)]

    def central(k, x):  # E[(v_x - mu_x)^k | m]
        return sum(math.comb(k, i) * raw[i].subs(m, ms[x]) * (-mu[x]) ** (k - i)
                   for i in range(k + 1))

    out = np.empty((n, n))
    for x in range(n):
        for y in range(x, n):
            if x == y:
                value = expect(central(4, x)) - expect(central(2, x)) ** 2
            else:
                cov = expect((ms[x] - mu[x]) * (ms[y] - mu[y]))
                value = expect(central(2, x) * central(2, y)) - cov**2
            out[x, y] = out[y, x] = float(sympy.nsimplify(value))
    return out


class TestProductVariance:
    """``moment_profile``'s ``product_variance``: the variance of each centred
    pair product, in closed form from the site moment table."""

    @pytest.mark.parametrize("model", list(Model))
    def test_moment_table_matches_the_generating_function(self, model):
        sympy = pytest.importorskip("sympy")
        t, m = sympy.symbols("t m")
        mgf = 1 / (1 + m * (1 - sympy.exp(t))) if model is Model.DISCRETE else 1 / (1 - m * t)
        for k, row in enumerate(model.site.moments):
            want = sympy.Poly(sympy.simplify(sympy.diff(mgf, t, k).subs(t, 0)), m)
            assert list(row) == [int(c) for c in reversed(want.all_coeffs())], k

    @pytest.mark.parametrize("spec", [
        disc_spec(1), disc_spec(2), disc_spec(2, beta_a=1 / 3, beta_b=0.7),
        cont_spec(1), cont_spec(2, t_a=1.0, t_b=2.0), cont_spec(2, t_a=0.5, t_b=2.25),
    ], ids=["disc-n1", "disc-n2", "disc-n2-narrow", "cont-n1", "cont-n2", "cont-n2-wide"])
    def test_matches_exact_integration(self, spec):
        got = moment_profile(spec).product_variance
        np.testing.assert_allclose(got, sympy_product_variance(spec), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec, seed", [
        (disc_spec(4), 41), (disc_spec(5), 51),
        (cont_spec(4, t_a=1.0, t_b=2.0), 42), (cont_spec(5, t_a=1.0, t_b=2.0), 52),
    ], ids=["disc-n4", "disc-n5", "cont-n4", "cont-n5"])
    def test_matches_exact_draws(self, spec, seed):
        # 16M draws: each pair's squared centred product (v_x - mu_x)(v_y - mu_y)
        # - cov_xy, averaged, estimates the variance; its SE from the same draws.
        draws, batch = 16 << 20, 1 << 20
        exact = moment_profile(spec)
        first, second = np.triu_indices(spec.params.n)
        cov = exact.covariance[first, second]
        sample = sample_exact_discrete if spec.model is Model.DISCRETE else sample_exact_continuous
        rng = make_rng(seed)
        total = squares = 0.0
        for _ in range(draws // batch):
            c = sample(spec, rng, size=batch) - exact.means
            d = c[:, first] * c[:, second] - cov
            d *= d
            total = total + d.sum(axis=0)
            squares = squares + (d * d).sum(axis=0)
        mean = total / draws
        se = np.sqrt((squares / draws - mean**2) / draws)
        z = (mean - exact.product_variance[first, second]) / se
        assert np.all(np.abs(z) < 4.0), z

    def test_symmetric_and_positive(self):
        for spec in (disc_spec(65), cont_spec(40, t_a=0.5, t_b=3.0)):
            pv = moment_profile(spec).product_variance
            assert np.array_equal(pv, pv.T) and np.all(pv > 0.0)

    def test_degenerate_interval_is_the_product_law(self):
        # Independent sites of one mean m: Var(c_x c_y) = var^2 off the
        # diagonal and the fourth central moment minus var^2 on it.
        rho = 1.5
        var, fourth = rho + rho**2, rho * (1 + rho) * (1 + 9 * rho + 9 * rho**2)
        pv = moment_profile(disc_spec(3, beta_a=0.6, beta_b=0.6)).product_variance
        want = np.full((3, 3), var**2)
        np.fill_diagonal(want, fourth - var**2)
        np.testing.assert_allclose(pv, want, rtol=1e-13)
        t = 2.0
        pv = moment_profile(cont_spec(3, t_a=t, t_b=t)).product_variance
        want = np.full((3, 3), t**4)
        np.fill_diagonal(want, 9 * t**4 - t**4)
        np.testing.assert_allclose(pv, want, rtol=1e-13)
