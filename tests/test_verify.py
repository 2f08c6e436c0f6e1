"""Identity checks, telescoping residuals, and direct balance verification."""

import dataclasses
import json
import math

import numpy as np
import pytest

from drivenchain import measure, verify
from drivenchain.core import (
    ChainParams,
    harmonic_number,
    make_rng,
    ordered_simplex_integral,
    quadrature_1d,
)
from drivenchain.measure import MixtureSpec, Model, mixture_density_discrete
from drivenchain.verify import (
    DIRECT_DEFAULTS,
    check_antiderivative,
    check_equilibrium_limit,
    check_frullani,
    check_stationarity_direct_discrete,
    check_telescoping,
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
D, C = Model.DISCRETE, Model.CONTINUOUS


def telescoping(params, model, svec, **kwargs):
    """The report of one argument vector."""
    (report,) = check_telescoping(MixtureSpec(params, model), [svec], **kwargs)
    return report


class TestAntiderivativeChecks:
    def test_lam_zero_closed_forms_coincide(self):
        r = check_antiderivative(D, 2.5, 0.0, tol=1e-12)
        assert r.passed and abs(r.residuals["residual"]) < 1e-12

    def test_reference_point(self):
        r = check_antiderivative(D, 2.0, 0.5, tol=1e-10)
        assert r.passed

    def test_lam_above_one(self):
        # radius for m=2 is 1.5; 1.2 sits between the removable point and it
        r = check_antiderivative(D, 2.0, 1.2, tol=1e-10)
        assert r.passed

    def test_limit_toward_removable_point(self):
        for lam in (1.0 - 1e-6, 1.0 + 1e-6):
            r = check_antiderivative(D, 2.0, lam, tol=1e-4)
            assert r.passed

    def test_continuous_reference_points(self):
        assert check_antiderivative(C, 1.0, 0.5, tol=1e-10).passed
        assert check_antiderivative(C, 3.0, -1.0, tol=1e-10).passed

    def test_continuous_limit_toward_zero(self):
        for t in (-1e-6, 1e-6):
            r = check_antiderivative(C, 2.0, t, tol=1e-4)
            assert r.passed

    def test_rejects_removable_points(self):
        with pytest.raises(ValueError):
            check_antiderivative(D, 2.0, 1.0)
        with pytest.raises(ValueError):
            check_antiderivative(C, 2.0, 0.0)
        # Outside the domain, rejected before any integral: lam in [0, (1+m)/m).
        for lam in (1.6, -0.5):
            with pytest.raises(ValueError, match="domain"):
                check_antiderivative(D, 2.0, lam)
        with pytest.raises(ValueError, match="domain"):
            check_antiderivative(C, 2.0, 0.5)  # t < 1/m


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
        r = telescoping(NEQ1, D, [0.5], tol=1e-10)
        assert r.passed
        assert abs(r.residuals["term_1"]) < 1e-12

    def test_n2_reference_vector(self):
        r = telescoping(NEQ2, D, [0.3, 0.7], tol=1e-8)
        assert r.passed and r.method == "quadrature"

    def test_n3_per_site_terms_vanish_individually(self):
        p = ChainParams(n=3, beta_a=0.5, beta_b=0.75)
        r = telescoping(p, D, [0.2, 0.5, 0.8], tol=1e-8)
        assert set(r.residuals) == {"term_1", "term_2", "term_3", "total"}
        assert all(abs(v) < 1e-8 for v in r.residuals.values())

    def test_n1_continuous_reference(self):
        r = telescoping(ChainParams(n=1, t_a=1.0, t_b=2.0), C, [0.3], tol=1e-10)
        assert r.passed

    def test_zero_arguments_trivial(self):
        p = ChainParams(n=2, t_a=1.0, t_b=2.0)
        r = telescoping(p, C, [0.0, 0.0], tol=1e-14)
        assert r.passed  # log F_m(0) = 0 makes the integrand vanish identically

    def test_n3_continuous_mixed_signs(self):
        p = ChainParams(n=3, t_a=1.0, t_b=2.0)
        r = telescoping(p, C, [-0.5, 0.1, 0.4], tol=1e-8)
        assert r.passed

    def test_monte_carlo_n5(self):
        p = ChainParams(n=5, beta_a=0.5, beta_b=0.75)
        r = telescoping(p, D, [0.3, 0.5, 0.7, 0.4, 0.6], mc_samples=1_000_000, seed=7)
        assert r.method == "monte-carlo"
        assert r.passed
        assert r.notes["seed"] == 7

    @pytest.mark.parametrize("model", list(Model))
    def test_method_follows_the_density_rule(self, model):
        # quadrature through QUADRATURE_MAX_SITES = 5 unless mc_samples is given
        for n, mc_samples, method in ((5, None, "quadrature"), (3, 20_000, "monte-carlo")):
            p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
            spec = MixtureSpec(p, model)
            (r,) = check_telescoping(spec, default_svec_grid(n, model, spec.interval[1])[:1],
                                     mc_samples=mc_samples)
            assert r.method == method and r.passed, (n, r)
            assert r.notes.get("samples") == mc_samples

    def test_monte_carlo_without_mc_samples_is_an_error(self, monkeypatch):
        # Beyond the limit, and for the impostor at any n, no count is an
        # error raised before any profile is drawn.
        def no_draw(*args, **kwargs):
            raise AssertionError("drew profiles")

        monkeypatch.setattr(verify, "profile_monte_carlo", no_draw)
        for n, profile_law in ((6, "ordered"), (6, "independent-marginals"),
                               (2, "independent-marginals")):
            p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
            for model in Model:
                spec = MixtureSpec(p, model)
                with pytest.raises(ValueError, match="mc_samples"):
                    check_telescoping(spec, default_svec_grid(n, model, spec.interval[1]),
                                      profile_law=profile_law)

    @pytest.mark.parametrize("profile_law", ["ordered", "independent-marginals"])
    def test_monte_carlo_verdict_needs_the_least_count(self, monkeypatch, profile_law):
        asked = []

        def two_profiles(draw, weigh, mc_samples, seed):
            asked.append(mc_samples)
            outputs = list(weigh(draw(make_rng(seed), 2)))
            return np.zeros(len(outputs)), np.ones(len(outputs))

        monkeypatch.setattr(verify, "profile_monte_carlo", two_profiles)
        assert verify.LEAST_MC_SAMPLES == 1000
        for n in (3, 6):
            p = ChainParams(n=n, beta_a=0.5, beta_b=0.75)
            with pytest.raises(ValueError, match="mc_samples >= 1000"):
                telescoping(p, D, [0.5] * n, mc_samples=999, profile_law=profile_law)
            r = telescoping(p, D, [0.5] * n, mc_samples=1000, profile_law=profile_law)
            assert r.method == "monte-carlo" and r.notes["samples"] == 1000
        assert asked == [1000, 1000]

    @pytest.mark.parametrize("n", [5, 8])
    def test_quadrature_terms_vanish_beyond_default_threshold(self, monkeypatch, n):
        # the deterministic companion of the Monte Carlo check at N=5
        monkeypatch.setattr(measure, "QUADRATURE_MAX_SITES", 8)
        p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
        for model, hi in ((Model.DISCRETE, p.rho_b), (Model.CONTINUOUS, p.t_b)):
            for vec in default_svec_grid(n, model, hi):
                r = telescoping(p, model, vec)
                assert r.method == "quadrature" and not r.inconclusive
                assert all(abs(v) < 1e-10 for v in r.residuals.values()), (model, vec)

    def test_monte_carlo_rejects_no_samples(self):
        # one sample has no standard error: its tolerance would be 4 * 0
        p = ChainParams(n=5, beta_a=0.5, beta_b=0.75)
        for mc_samples in (0, 1):
            with pytest.raises(ValueError, match="mc_samples"):
                telescoping(p, D, [0.5] * 5, mc_samples=mc_samples)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            telescoping(NEQ2, D, [0.3, 1.4])  # radius (1+3)/3
        with pytest.raises(ValueError):
            telescoping(ChainParams(n=2, t_a=1.0, t_b=2.0), C, [0.3, 0.6])

    def test_argument_rows_must_match_n(self):
        spec = MixtureSpec(NEQ2, D)
        for svecs in ([0.3, 0.7], [[0.3]], [[0.3, 0.5, 0.7]]):
            with pytest.raises(ValueError, match="argument vectors"):
                check_telescoping(spec, svecs)

    @pytest.mark.parametrize("n", [2, 3])
    def test_impostor_profile_rejected(self, n):
        # independent-marginals impostor: right marginals, no ordering.
        # Power requirement: residual at least 100x the quadrature tolerance.
        p = ChainParams(n=n, beta_a=0.5, beta_b=0.75)
        vec = [0.3 if x % 2 == 0 else 0.7 for x in range(n)]
        r = telescoping(p, D, vec, mc_samples=1_000_000, seed=11,
                        profile_law="independent-marginals")
        assert r.method == "monte-carlo"
        assert not r.passed
        assert r.max_residual > 100.0 * 1e-8
        assert r.max_residual > r.tolerances["total"]

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("profile_law", ["ordered", "independent-marginals"])
    def test_batched_monte_carlo_matches_per_vector_draws(self, monkeypatch, model,
                                                          profile_law):
        # Oracle: a fresh draw per vector, pinned edges as np.full columns.
        # Entry n is the per-profile total, the sum of the site terms.
        def oracle(lo, hi, svec, mc_samples, seed, batch):
            n = len(svec)
            rng = make_rng(seed)
            sums, sums_sq, drawn = np.zeros(n + 1), np.zeros(n + 1), 0
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
                total = np.zeros(b)
                for x in range(n):
                    sx = float(svec[x])
                    left = np.full(b, lo) if x == 0 else m[:, x - 1]
                    right = np.full(b, hi) if x == n - 1 else m[:, x + 1]
                    g = (verify._log_mgf(model, left, sx)
                         - 2.0 * verify._log_mgf(model, m[:, x], sx)
                         + verify._log_mgf(model, right, sx)) * weight
                    sums[x] += g.sum()
                    sums_sq[x] += (g * g).sum()
                    total = total + g
                sums[n] += total.sum()
                sums_sq[n] += (total * total).sum()
                drawn += b
            return sums / drawn, sums_sq / drawn

        monkeypatch.setattr(measure, "MC_BATCH", 1000)
        p = ChainParams(n=5, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
        spec = MixtureSpec(p, model)
        lo, hi = spec.interval
        grid = default_svec_grid(5, model, hi)
        mc_samples = 2500  # batches of 1000, 1000 and 500
        results = verify._telescoping_mc(spec, np.array(grid), mc_samples, 3, profile_law)
        volume = (hi - lo) ** 5 / math.factorial(5)
        for svec, (residuals, tolerances, notes) in zip(grid, results):
            means, second = oracle(lo, hi, svec, mc_samples, 3, 1000)
            sds = np.sqrt(np.maximum(second - means**2, 0.0) / mc_samples)
            for x in range(5):
                assert residuals[f"term_{x + 1}"] == volume * means[x]
                assert tolerances[f"term_{x + 1}"] == 4.0 * volume * sds[x]
            assert residuals["total"] == volume * means[:5].sum()
            assert tolerances["total"] == 4.0 * volume * sds[5]
            assert notes == {"samples": mc_samples, "seed": 3, "profile_law": profile_law}

    def test_default_grid_respects_domains(self):
        for n in (1, 3, 5):
            for vec in default_svec_grid(n, Model.DISCRETE, 3.0):
                assert np.all(vec >= 0.0) and np.all(vec < 4.0 / 3.0)
            for vec in default_svec_grid(n, Model.CONTINUOUS, 2.0):
                assert np.all(vec < 0.5)


def _telescoping_per_entry(model, lo, hi, svec, tol):
    """Reference: each site term as three separate ordered-box integrals, one
    per bracket entry, with the term's summed error estimate."""
    n = len(svec)
    factors = [(lambda m, s=float(s): verify._mgf(model, m, s)) for s in svec]
    values, errors = [], []
    for x in range(n):
        terms = []
        for y, weight in ((x - 1, 1.0), (x, -2.0), (x + 1, 1.0)):
            at, edge = (y, None) if 0 <= y < n else (x, lo if y < 0 else hi)

            def weighted(m, at=at, edge=edge, weight=weight, s=float(svec[x])):
                return (weight * verify._log_mgf(model, m if edge is None else edge, s)
                        * factors[at](m))

            terms.append(ordered_simplex_integral(
                factors[:at] + [weighted] + factors[at + 1:], lo, hi, tol=tol * 1e-2))
        values.append(sum(v for v, _ in terms))
        errors.append(sum(e for _, e in terms))
    return values, errors


def _frullani_series_head(a, b, tol):
    """Reference: the Taylor series on [0, 1e-4] plus quadrature on [1e-4, cut],
    with the same cut as the check; (value, quadrature error)."""
    delta, head, fact = 1e-4, 0.0, 1.0
    for k in range(1, 12):
        fact *= k
        head += (-1.0) ** (k + 1) * (b**k - a**k) * delta**k / (k * fact)
    mn, cut = min(a, b), delta
    while math.exp(-mn * cut) / (mn * cut) > tol / 10.0:
        cut *= 2.0
    quad = quadrature_1d(lambda x: (np.exp(-a * x) - np.exp(-b * x)) / x, delta, cut, tol * 1e-2)
    return head + quad.value, quad.error


class TestOneIntegratorCall:
    @staticmethod
    def _count(monkeypatch):
        calls = {"ordered_simplex_integral": 0, "quadrature_1d": 0}
        for name in calls:
            real = getattr(verify, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(verify, name, counted)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_one_ordered_box_call_per_telescoping_report(self, monkeypatch, n):
        calls = self._count(monkeypatch)
        p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
        for model in Model:
            spec = MixtureSpec(p, model)
            grid = default_svec_grid(n, model, spec.interval[1])
            before = calls["ordered_simplex_integral"]
            reports = check_telescoping(spec, grid)
            assert all(r.method == "quadrature" and r.passed for r in reports)
            assert calls["ordered_simplex_integral"] - before == len(grid)
        assert calls["quadrature_1d"] == 0

    def test_one_quadrature_per_identity_report(self, monkeypatch):
        calls = self._count(monkeypatch)
        assert check_frullani(0.5, 3.0).passed
        assert calls == {"ordered_simplex_integral": 0, "quadrature_1d": 1}
        assert check_antiderivative(C, 2.0, -1.0).passed
        assert calls == {"ordered_simplex_integral": 0, "quadrature_1d": 2}

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stacked_terms_match_per_entry_integrals(self, n):
        # The stacked call's one error bounds each of a term's three entries,
        # so a term is off by at most 3 * quad_error, plus the reference's own.
        p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
        for model in Model:
            spec = MixtureSpec(p, model)
            lo, hi = spec.interval
            for svec in default_svec_grid(n, model, hi):
                r = telescoping(p, model, svec)
                values, errors = _telescoping_per_entry(model, lo, hi, svec, 1e-8)
                for x in range(n):
                    bound = 3.0 * r.notes["quad_error"] + errors[x]
                    assert abs(r.residuals[f"term_{x + 1}"] - values[x]) <= bound, (model, svec, x)

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.5, 3.0), (2.0, 2.0), (0.1, 10.0), (3.0, 0.2)])
    def test_frullani_matches_the_series_head(self, a, b):
        r = check_frullani(a, b, tol=1e-9)
        assert r.passed and r.method == "quadrature"
        value, error = _frullani_series_head(a, b, 1e-9)
        found = r.residuals["residual"] + math.log(b / a)
        assert abs(found - value) <= r.notes["quad_error"] + error, (found, value)


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

    def test_density_budget_stops_at_roundoff(self):
        # the table is asked for tol / (10 R); at tol 1e-14 that lies below
        # what the integrator certifies
        q = NEQ1.rho_b / (1.0 + NEQ1.rho_b)
        inj = -math.log1p(-NEQ1.beta_a) - math.log1p(-NEQ1.beta_b)
        for tol, passed in ((1e-12, True), (1e-14, False)):
            k_sum = verify._tail_k(q, tol / 10.0, n_sums=2)
            rate_bound = 2.0 * inj + 2.0 * harmonic_number(40) + 2.0 * harmonic_number(k_sum)
            r = check_stationarity_direct_discrete(NEQ1, truncation=40, tol=tol)
            assert r.params["density_tol"] == tol / (10.0 * rate_bound)
            assert r.passed == passed and r.inconclusive != passed

    def test_table_error_enters_the_verdict(self, monkeypatch):
        # a table that reports a 1e-7 error cannot certify a 1e-8 residual
        real = verify.mixture_density_discrete
        monkeypatch.setattr(verify, "mixture_density_discrete",
                            lambda *a, **kw: dataclasses.replace(real(*a, **kw), error=1e-7))
        r = check_stationarity_direct_discrete(NEQ1, truncation=120, tol=1e-8)
        assert not r.passed and not r.inconclusive
        assert r.notes["table_error"] == 1e-7
        assert r.max_residual == (r.notes["raw"] + 1e-7 * r.notes["rate_bound"]
                                  + r.notes["tail_bound"])

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
        assert abs(oracle - r.notes["raw"]) < r.notes["tail_bound"] + 1e-12

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

    @pytest.mark.parametrize("params, model", [
        (ChainParams(n=2, beta_a=2.0 / 3.0, beta_b=2.0 / 3.0), Model.DISCRETE),
        (ChainParams(n=3, t_a=1.5, t_b=1.5), Model.CONTINUOUS),
    ])
    def test_degenerate_interval_is_integrated(self, monkeypatch, params, model):
        # at lo == hi the check integrates the mixture, not the product law again
        calls = []
        real = measure.ordered_simplex_integral
        monkeypatch.setattr(measure, "ordered_simplex_integral",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        r = check_equilibrium_limit(params, model, tol=1e-12)
        assert len(calls) == 1 and r.method == "quadrature"
        assert r.passed and r.max_residual <= 1e-15

    def test_inconclusive_when_table_cannot_be_certified(self):
        # tol/100 = 1e-17 is below what the ordered-box integrator reaches
        r = check_equilibrium_limit(NEQ2, Model.DISCRETE, tol=1e-15)
        assert r.inconclusive and not r.passed
        assert r.method == "quadrature"
        assert r.residuals["quadrature_error"] > 0.0
        assert r.tolerances == {"quadrature_error": 0.0}
        assert "failure" in r.notes

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
        r = telescoping(p, D, [0.3, 0.7], tol=1e-30)
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
        # n = 6, above the quadrature limit, keeps the batched Monte Carlo path covered
        reports = telescoping_suite(sizes=(2, 6), mc_samples=30_000, seed=5)
        expected = []
        for n, mc_samples in ((2, None), (6, 30_000)):
            p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
            for vec in default_svec_grid(n, Model.DISCRETE, p.rho_b):
                expected.append(telescoping(p, D, vec, mc_samples=mc_samples, seed=5))
            for vec in default_svec_grid(n, Model.CONTINUOUS, p.t_b):
                expected.append(telescoping(p, C, vec, mc_samples=mc_samples, seed=5))
        assert [r.method for r in reports] == ["quadrature"] * 12 + ["monte-carlo"] * 12
        assert reports == expected  # field by field, floats compared exactly

    def test_telescoping_suite_hands_mc_samples_only_above_the_limit(self, monkeypatch):
        calls = []

        def record(spec, svecs, tol, mc_samples, seed):
            calls.append((spec.params.n, spec.model, mc_samples))
            return []

        monkeypatch.setattr(verify, "check_telescoping", record)
        telescoping_suite(sizes=(1, 5, 6), mc_samples=123)
        assert calls == [(n, model, mc) for n, mc in ((1, None), (5, None), (6, 123))
                         for model in Model]

    def test_stationarity_suite_reduced(self, monkeypatch):
        # The suite runs one check per DIRECT_DEFAULTS entry: smaller boxes, same tols.
        reduced = {1: (60, DIRECT_DEFAULTS[1][1]), 2: (8, DIRECT_DEFAULTS[2][1])}
        monkeypatch.setattr(verify, "DIRECT_DEFAULTS", reduced)
        reports = stationarity_suite()
        assert [(r.notes["n"], r.params["truncation"], r.tolerances["max_residual"])
                for r in reports] == [(n, k, tol) for n, (k, tol) in reduced.items()]
        assert all(r.passed for r in reports)

    def test_missing_truncation_and_tol_take_direct_defaults(self, monkeypatch):
        # Larger n take the last entry's tol and the largest truncation whose
        # table fits: at tol 1e-6, k_sum = 49 and truncation 14 (a 64^3 table).
        monkeypatch.setattr(verify, "DIRECT_DEFAULTS", {1: (30, 1e-8), 2: (5, 1e-6)})
        for params, truncation, tol, want in ((NEQ1, None, None, (30, 1e-8)),
                                              (NEQ3, None, None, (14, 1e-6)),
                                              (NEQ2, 3, None, (3, 1e-6)),
                                              (NEQ1, None, 1e-7, (30, 1e-7))):
            r = check_stationarity_direct_discrete(params, truncation, tol,
                                                   candidate="product-geometric")
            assert (r.params["truncation"], r.tolerances["max_residual"]) == want

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("tol", [1e-6, 1e-2, 0.3])
    def test_derived_truncation_is_the_largest_that_fits(self, n, tol):
        params = ChainParams(n=n, beta_a=0.5, beta_b=0.75)
        try:
            r = check_stationarity_direct_discrete(params, tol=tol, candidate="product-geometric")
        except ValueError as exc:  # even truncation 0 needs too large a table
            assert "truncation 0 needs" in str(exc) and "a larger --tol shortens it" in str(exc)
            assert (n, tol) in {(4, 1e-6), (5, 1e-6), (5, 1e-2), (6, 1e-6), (6, 1e-2), (6, 0.3)}
            return
        k, k_sum, extent = r.params["truncation"], r.notes["k_sum"], r.notes["extent"]
        assert extent == k + max(k_sum, k)
        assert (extent + 1) ** n <= verify.MAX_TABLE_ENTRIES < (k + 1 + max(k_sum, k + 1) + 1) ** n

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
