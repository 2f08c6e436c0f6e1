"""Identity checks, telescoping residuals, and direct balance verification."""

import json
import math

import numpy as np
import pytest

from drivenchain import verify
from drivenchain.core import ChainParams, harmonic_number, make_rng
from drivenchain.measure import MixtureSpec, Model, mixture_density_discrete
from drivenchain.verify import (
    check_antiderivative_continuous,
    check_antiderivative_discrete,
    check_equilibrium_limit,
    check_frullani,
    check_stationarity_direct_discrete,
    check_telescoping_continuous,
    check_telescoping_discrete,
    default_svec_grid,
    equilibrium_suite,
    identity_suite,
    run_suite,
    stationarity_suite,
    telescoping_suite,
)

NEQ1 = ChainParams(n=1, beta_a=0.5, beta_b=0.75)
NEQ2 = ChainParams(n=2, beta_a=0.5, beta_b=0.75)
NEQ3 = ChainParams(n=3, beta_a=0.5, beta_b=0.75)


class TestAntiderivativeChecks:
    def test_lam_zero_closed_forms_coincide(self):
        r = check_antiderivative_discrete(2.5, 0.0, tol=1e-12)
        assert r.passed and abs(r.residuals["residual"]) < 1e-12

    def test_reference_point(self):
        r = check_antiderivative_discrete(2.0, 0.5, tol=1e-10)
        assert r.passed

    def test_lam_above_one(self):
        # radius for m=2 is 1.5; 1.2 sits between the removable point and it
        r = check_antiderivative_discrete(2.0, 1.2, tol=1e-10)
        assert r.passed

    def test_limit_toward_removable_point(self):
        for lam in (1.0 - 1e-6, 1.0 + 1e-6):
            r = check_antiderivative_discrete(2.0, lam, tol=1e-4)
            assert r.passed

    def test_continuous_reference_points(self):
        assert check_antiderivative_continuous(1.0, 0.5, tol=1e-10).passed
        assert check_antiderivative_continuous(3.0, -1.0, tol=1e-10).passed

    def test_continuous_limit_toward_zero(self):
        for t in (-1e-6, 1e-6):
            r = check_antiderivative_continuous(2.0, t, tol=1e-4)
            assert r.passed

    def test_rejects_removable_points(self):
        with pytest.raises(ValueError):
            check_antiderivative_discrete(2.0, 1.0)
        with pytest.raises(ValueError):
            check_antiderivative_continuous(2.0, 0.0)


class TestFrullani:
    def test_equal_arguments(self):
        r = check_frullani(2.0, 2.0)
        assert r.passed and r.residuals["residual"] == 0.0

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.5, 3.0), (0.1, 10.0)])
    def test_log_ratio(self, a, b):
        r = check_frullani(a, b, tol=1e-9)
        assert r.passed, r.residuals

    def test_invalid(self):
        with pytest.raises(ValueError):
            check_frullani(-1.0, 1.0)


class TestTelescoping:
    def test_n1_discrete_closed_form_zero(self):
        r = check_telescoping_discrete(NEQ1, [0.5], tol=1e-10)
        assert r.passed
        assert abs(r.residuals["term_1"]) < 1e-12

    def test_n2_reference_vector(self):
        r = check_telescoping_discrete(NEQ2, [0.3, 0.7], tol=1e-8)
        assert r.passed and r.method == "quadrature"

    def test_n3_per_site_terms_vanish_individually(self):
        p = ChainParams(n=3, beta_a=0.5, beta_b=0.75)
        r = check_telescoping_discrete(p, [0.2, 0.5, 0.8], tol=1e-8)
        assert set(r.residuals) == {"term_1", "term_2", "term_3", "total"}
        assert all(abs(v) < 1e-8 for v in r.residuals.values())

    def test_n1_continuous_reference(self):
        r = check_telescoping_continuous(
            ChainParams(n=1, t_a=1.0, t_b=2.0), [0.3], tol=1e-10
        )
        assert r.passed

    def test_zero_arguments_trivial(self):
        p = ChainParams(n=2, t_a=1.0, t_b=2.0)
        r = check_telescoping_continuous(p, [0.0, 0.0], tol=1e-14)
        assert r.passed  # log F_m(0) = 0 makes the integrand vanish identically

    def test_n3_continuous_mixed_signs(self):
        p = ChainParams(n=3, t_a=1.0, t_b=2.0)
        r = check_telescoping_continuous(p, [-0.5, 0.1, 0.4], tol=1e-8)
        assert r.passed

    def test_monte_carlo_n5(self):
        p = ChainParams(n=5, beta_a=0.5, beta_b=0.75)
        r = check_telescoping_discrete(
            p, [0.3, 0.5, 0.7, 0.4, 0.6], mc_samples=1_000_000, seed=7
        )
        assert r.method == "monte-carlo"
        assert r.passed
        assert r.notes["seed"] == 7

    @pytest.mark.parametrize("n", [5, 8])
    def test_quadrature_terms_vanish_beyond_default_threshold(self, n):
        # the deterministic companion of the Monte Carlo check at N=5
        p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
        for model, check, hi in ((Model.DISCRETE, check_telescoping_discrete, p.rho_b),
                                 (Model.CONTINUOUS, check_telescoping_continuous, p.t_b)):
            for vec in default_svec_grid(n, model, hi):
                r = check(p, vec, method="quadrature")
                assert r.method == "quadrature" and not r.inconclusive
                assert all(abs(v) < 1e-10 for v in r.residuals.values()), (model, vec)

    def test_monte_carlo_rejects_no_samples(self):
        p = ChainParams(n=5, beta_a=0.5, beta_b=0.75)
        with pytest.raises(ValueError, match="mc_samples"):
            check_telescoping_discrete(p, [0.5] * 5, mc_samples=0)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            check_telescoping_discrete(NEQ2, [0.3, 1.4])  # radius (1+3)/3
        with pytest.raises(ValueError):
            check_telescoping_continuous(
                ChainParams(n=2, t_a=1.0, t_b=2.0), [0.3, 0.6]
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_impostor_profile_rejected(self, n):
        # independent-marginals impostor: right marginals, no ordering.
        # Power requirement: residual at least 100x the quadrature tolerance.
        p = ChainParams(n=n, beta_a=0.5, beta_b=0.75)
        vec = [0.3 if x % 2 == 0 else 0.7 for x in range(n)]
        r = check_telescoping_discrete(
            p, vec, method="monte-carlo", mc_samples=1_000_000, seed=11,
            profile_law="independent-marginals",
        )
        assert not r.passed
        assert r.max_residual > 100.0 * 1e-8
        assert r.max_residual > r.tolerances["total"]

    def test_quadrature_rejects_impostor_law(self):
        with pytest.raises(ValueError):
            check_telescoping_discrete(
                NEQ2, [0.3, 0.7], method="quadrature",
                profile_law="independent-marginals",
            )

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("profile_law", ["ordered", "independent-marginals"])
    def test_batched_monte_carlo_matches_per_vector_draws(self, monkeypatch, model,
                                                          profile_law):
        # Oracle: a fresh draw per vector, pinned edges as np.full columns.
        def oracle(lo, hi, svec, mc_samples, seed, batch):
            n = len(svec)
            rng = make_rng(seed)
            sums, sums_sq, drawn = np.zeros(n), np.zeros(n), 0
            while drawn < mc_samples:
                b = min(batch, mc_samples - drawn)
                if profile_law == "ordered":
                    m = rng.uniform(lo, hi, size=(b, n))
                    m.sort(axis=-1)
                else:
                    m = np.empty((b, n))
                    for x in range(n):
                        m[:, x] = lo + (hi - lo) * rng.beta(x + 1, n - x, size=b)
                weight = np.prod([verify._mgf(model, m[:, x], float(svec[x]))
                                  for x in range(n)], axis=0)
                for x in range(n):
                    sx = float(svec[x])
                    left = np.full(b, lo) if x == 0 else m[:, x - 1]
                    right = np.full(b, hi) if x == n - 1 else m[:, x + 1]
                    g = (verify._log_mgf(model, left, sx)
                         - 2.0 * verify._log_mgf(model, m[:, x], sx)
                         + verify._log_mgf(model, right, sx)) * weight
                    sums[x] += g.sum()
                    sums_sq[x] += (g * g).sum()
                drawn += b
            return sums / drawn, sums_sq / drawn

        monkeypatch.setattr(verify, "MC_BATCH", 1000)
        p = ChainParams(n=5, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
        lo, hi = MixtureSpec(p, model).interval
        grid = default_svec_grid(5, model, hi)
        mc_samples = 2500  # batches of 1000, 1000 and 500
        results = verify._telescoping_mc(model, lo, hi, np.array(grid), mc_samples, 3,
                                         profile_law)
        volume = (hi - lo) ** 5 / math.factorial(5)
        for svec, (residuals, tolerances, notes) in zip(grid, results):
            means, second = oracle(lo, hi, svec, mc_samples, 3, 1000)
            sds = np.sqrt(np.maximum(second - means**2, 0.0) / mc_samples)
            for x in range(5):
                assert residuals[f"term_{x + 1}"] == volume * means[x]
                assert tolerances[f"term_{x + 1}"] == 4.0 * volume * sds[x]
            assert residuals["total"] == volume * means.sum()
            assert tolerances["total"] == 4.0 * volume * math.sqrt(float((sds**2).sum()))
            assert notes == {"samples": mc_samples, "seed": 3, "profile_law": profile_law}

    def test_default_grid_respects_domains(self):
        for n in (1, 3, 5):
            for vec in default_svec_grid(n, Model.DISCRETE, 3.0):
                assert np.all(vec >= 0.0) and np.all(vec < 4.0 / 3.0)
            for vec in default_svec_grid(n, Model.CONTINUOUS, 2.0):
                assert np.all(vec < 0.5)


def _generator_residuals_oracle(params, box, k_sum, mu):
    """Brute-force row balance of the truncated generator.

    Enumerates every outgoing channel of every state in the extended table --
    straight from the jump rules, independent of the balance-equation
    rearrangement -- and accumulates probability inflow per target state.
    Extraction inflows are truncated at the same k_sum as the check.
    """
    lam_a = -math.log1p(-params.beta_a)
    lam_b = -math.log1p(-params.beta_b)
    extent = mu.shape[0] - 1
    inflow = np.zeros((box + 1, box + 1))
    for a in range(extent + 1):
        for b in range(extent + 1):
            m = mu[a, b]
            for k in range(1, a + 1):
                r = m / k
                if a - k <= box and b <= box:
                    inflow[a - k, b] += r  # left exit of site 1: reservoir A
                if a - k <= box and b + k <= box:
                    inflow[a - k, b + k] += r  # right exit of site 1: site 2
            for k in range(1, b + 1):
                r = m / k
                if b - k <= box and a + k <= box:
                    inflow[a + k, b - k] += r  # left exit of site 2: site 1
                if b - k <= box and a <= box:
                    inflow[a, b - k] += r  # right exit of site 2: reservoir B
            if a <= box and b <= box:
                for k in range(1, box - a + 1):
                    inflow[a + k, b] += m * params.beta_a**k / k
                for k in range(1, box - b + 1):
                    inflow[a, b + k] += m * params.beta_b**k / k
    worst = 0.0
    for a in range(box + 1):
        for b in range(box + 1):
            out = mu[a, b] * (
                lam_a + lam_b + 2.0 * harmonic_number(a) + 2.0 * harmonic_number(b)
            )
            worst = max(worst, abs(out - inflow[a, b]))
    return worst


def _generator_inflow_oracle(params, box, k_sum, mu):
    """Brute-force inflow to every state of {0..box}^n, for any n.

    Walks every state of the table ``mu`` and every channel out of it,
    straight from the jump rules: site x sends k <= eta_x particles left
    (to site x - 1, or reservoir A from site 1) or right (to site x + 1, or
    reservoir B from site n) at rate 1/k, and each reservoir injects k at its
    end site at rate beta^k / k.  Removals count up to k_sum, as in the check.
    """
    n = mu.ndim
    inflow = np.zeros((box + 1,) * n)

    def credit(state, rate):
        if max(state) <= box:
            inflow[tuple(state)] += rate

    for state in np.ndindex(mu.shape):
        m = mu[state]
        for x in range(n):
            for k in range(1, state[x] + 1):
                for y in (x - 1, x + 1):
                    after = list(state)
                    after[x] -= k
                    if 0 <= y < n:
                        after[y] += k
                    elif k > k_sum:
                        continue
                    credit(after, m / k)
        for x, beta in ((0, params.beta_a), (n - 1, params.beta_b)):
            for k in range(1, box - state[x] + 1):
                after = list(state)
                after[x] += k
                credit(after, m * beta**k / k)
    return inflow


class TestStationarityDirect:
    def test_n1_mixture_passes(self):
        r = check_stationarity_direct_discrete(NEQ1, truncation=120, tol=1e-8)
        assert r.passed
        assert r.notes["tail_bound"] <= 1e-9

    def test_n1_equilibrium_reversible_case(self):
        p = ChainParams(n=1, beta_a=0.5, beta_b=0.5)
        r = check_stationarity_direct_discrete(p, truncation=80, tol=1e-12)
        assert r.passed  # detailed balance of the plain geometric law

    def test_n1_impostor_rejected_with_power_margin(self):
        r = check_stationarity_direct_discrete(
            NEQ1, truncation=120, tol=1e-8, candidate="product-geometric"
        )
        assert not r.passed
        assert r.max_residual > 1e-4
        assert r.max_residual > 100.0 * 1e-8

    def test_n2_mixture_passes_small_box(self):
        r = check_stationarity_direct_discrete(NEQ2, truncation=10, tol=1e-6)
        assert r.passed

    @pytest.mark.parametrize("candidate", ["product-geometric", "product-marginals"])
    def test_n2_impostors_rejected(self, candidate):
        r = check_stationarity_direct_discrete(
            NEQ2, truncation=10, tol=1e-6, candidate=candidate
        )
        assert not r.passed
        assert r.max_residual > 100.0 * 1e-6

    def test_bookkeeping_against_generator_oracle(self):
        # The balance-equation residual and the raw generator row balance
        # must agree: same measure, same truncation, independent bookkeeping.
        box = 8
        r = check_stationarity_direct_discrete(NEQ2, truncation=box, tol=1e-6)
        k_sum = r.notes["k_sum"]
        extent = r.notes["extent"]
        spec = MixtureSpec(NEQ2, Model.DISCRETE)
        mu = np.empty((extent + 1, extent + 1))
        for a in range(extent + 1):
            for b in range(extent + 1):
                mu[a, b] = mixture_density_discrete(spec, [a, b], tol=1e-11).value
        oracle = _generator_residuals_oracle(NEQ2, box, k_sum, mu)
        # the oracle sums extraction inflow to the table edge rather than k_sum,
        # so allow the tail-certificate slack on top of float noise
        assert abs(oracle - r.max_residual) < r.notes["tail_bound"] + 1e-12

    def test_unsupported_size(self):
        # the candidate table must fit MAX_TABLE_ENTRIES: 70^3 and 513^2 do not
        assert verify.MAX_TABLE_ENTRIES == 2**18
        for params, truncation in ((NEQ3, 20), (NEQ2, 256)):
            with pytest.raises(ValueError, match="MAX_TABLE_ENTRIES"):
                check_stationarity_direct_discrete(params, truncation, tol=1e-6)

    @pytest.mark.parametrize("params, candidate", [(NEQ2, "mixture"), (NEQ1, "product-geometric")])
    def test_negative_truncation_rejected(self, params, candidate):
        with pytest.raises(ValueError, match="truncation"):
            check_stationarity_direct_discrete(params, -1, tol=1e-6, candidate=candidate)
        r = check_stationarity_direct_discrete(params, 0, tol=1e-6, candidate="mixture")
        assert r.passed and r.params["truncation"] == 0

    def test_n3_mixture_passes(self):
        r = check_stationarity_direct_discrete(NEQ3, truncation=10, tol=1e-6)
        assert r.passed
        assert r.notes["n"] == 3 and r.notes["extent"] == 10 + r.notes["k_sum"]
        assert r.notes["tail_bound"] <= 1e-7

    @pytest.mark.parametrize("candidate", ["product-geometric", "product-marginals"])
    def test_n3_impostors_rejected(self, candidate):
        r = check_stationarity_direct_discrete(
            NEQ3, truncation=10, tol=1e-6, candidate=candidate
        )
        assert not r.passed
        assert r.max_residual > 100.0 * 1e-6

    def test_n1_rejects_product_marginals(self):
        # at n = 1 the product of the marginals is the mixture itself
        with pytest.raises(ValueError, match="product-marginals"):
            check_stationarity_direct_discrete(NEQ1, 10, candidate="product-marginals")

    @pytest.mark.parametrize("params", [NEQ1, NEQ2, NEQ3])
    def test_shifted_slices_against_generator_oracle(self, params):
        # any table, not only a stationary one: every channel's bookkeeping shows
        n, box, k_sum = params.n, 4, 6
        mu = make_rng(n).uniform(size=(box + max(k_sum, box) + 1,) * n)
        inflow = _generator_inflow_oracle(params, box, k_sum, mu)
        exit_rate = np.zeros((box + 1,) * n) - math.log1p(-params.beta_a) - math.log1p(-params.beta_b)
        for state in np.ndindex(exit_rate.shape):
            exit_rate[state] += 2.0 * sum(harmonic_number(v) for v in state)
        oracle = mu[(slice(box + 1),) * n] * exit_rate - inflow
        got = verify._balance_residuals(mu, box, k_sum, params)
        np.testing.assert_allclose(got, oracle, rtol=1e-13, atol=1e-12)


class TestEquilibriumLimit:
    def test_discrete_exact_product(self):
        p = ChainParams(n=3, beta_a=2.0 / 3.0, beta_b=2.0 / 3.0)  # rho = 2
        r = check_equilibrium_limit(p, Model.DISCRETE, tol=1e-12)
        assert r.passed

    def test_continuous_exact_product(self):
        p = ChainParams(n=2, t_a=1.5, t_b=1.5)
        r = check_equilibrium_limit(p, Model.CONTINUOUS, tol=1e-12)
        assert r.passed

    def test_near_degenerate_interval_tracks_product(self):
        beta_a = 0.5
        rho_gap = 1e-8
        beta_b = (1.0 + rho_gap) / (2.0 + rho_gap)  # rho_b = 1 + 1e-8
        p = ChainParams(n=2, beta_a=beta_a, beta_b=beta_b)
        r = check_equilibrium_limit(p, Model.DISCRETE, tol=1e-6, relative=True)
        assert r.passed


class TestReportsAndSuites:
    def test_report_json_round_trip(self):
        r = check_frullani(1.0, 2.0)
        blob = json.loads(r.to_json())
        assert blob["name"] == "frullani"
        assert blob["passed"] is True
        assert "residual" in blob["residuals"]

    def test_inconclusive_on_quadrature_exhaustion(self):
        p = ChainParams(n=2, beta_a=0.5, beta_b=0.75)
        r = check_telescoping_discrete(p, [0.3, 0.7], tol=1e-30)
        assert r.inconclusive
        assert not r.passed

    def test_identity_suite_all_pass(self):
        reports = identity_suite()
        assert len(reports) > 50
        assert all(r.passed for r in reports)

    def test_equilibrium_suite(self):
        assert all(r.passed for r in equilibrium_suite())

    def test_telescoping_suite_small(self):
        reports = telescoping_suite(sizes=(1, 2), mc_samples=200_000)
        assert all(r.passed for r in reports)

    def test_telescoping_suite_equals_per_vector_checks(self):
        reports = telescoping_suite(sizes=(2, 5), mc_samples=30_000, seed=5)
        expected = []
        for n in (2, 5):
            p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
            for vec in default_svec_grid(n, Model.DISCRETE, p.rho_b):
                expected.append(check_telescoping_discrete(p, vec, mc_samples=30_000, seed=5))
            for vec in default_svec_grid(n, Model.CONTINUOUS, p.t_b):
                expected.append(check_telescoping_continuous(p, vec, mc_samples=30_000, seed=5))
        assert [r.method for r in reports] == ["quadrature"] * 12 + ["monte-carlo"] * 12
        assert reports == expected  # field by field, floats compared exactly

    def test_stationarity_suite_reduced(self):
        reports = stationarity_suite(truncation_1=60, truncation_2=8)
        assert all(r.passed for r in reports)

    def test_run_suite_dispatch(self):
        assert run_suite("identities")
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_run_suite_all_rejects_options(self, monkeypatch):
        calls = []
        fake = {"a": lambda **kw: calls.append(kw) or [], "b": lambda **kw: calls.append(kw) or []}
        monkeypatch.setattr(verify, "SUITES", fake)
        assert run_suite("all") == [] and calls == [{}, {}]
        with pytest.raises(ValueError, match="no options"):
            run_suite("all", sizes=(1,))
        assert len(calls) == 2  # nothing ran with the options dropped
