"""Core numerics: parameters, RNG streams, harmonic numbers, quadrature."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from drivenchain import core
from drivenchain.core import (
    HARMONIC_CACHE_LIMIT,
    ChainParams,
    QuadratureError,
    harmonic_number,
    harmonic_prefix,
    make_rng,
    ordered_simplex_integral,
    quadrature_1d,
)


class TestChainParams:
    def test_rho_derivation(self):
        p = ChainParams(n=3, beta_a=0.5, beta_b=0.75)
        assert p.rho_a == pytest.approx(1.0)
        assert p.rho_b == pytest.approx(3.0)

    def test_equilibrium_allowed(self):
        p = ChainParams(n=1, beta_a=0.6, beta_b=0.6, t_a=2.0, t_b=2.0)
        assert p.rho_a == p.rho_b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": 2, "beta_a": 0.8, "beta_b": 0.5},
            {"n": 2, "beta_a": 0.0},
            {"n": 2, "beta_b": 1.0},
            {"n": 2, "t_a": 0.0},
            {"n": 2, "t_a": 2.0, "t_b": 1.0},
            {"n": 2, "t_b": math.inf},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChainParams(**{"n": 2, **kwargs})


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(1234).random(32)
        b = make_rng(1234).random(32)
        assert np.array_equal(a, b)


class TestHarmonic:
    def test_trivial_values(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0

    def test_h4_direct_summation_oracle(self):
        oracle = sum(1.0 / k for k in range(1, 5))
        assert oracle == pytest.approx(25.0 / 12.0, abs=1e-15)  # frozen: 2.083333...
        assert harmonic_number(4) == pytest.approx(oracle, abs=1e-15)

    @given(st.integers(min_value=1, max_value=5000))
    @example(1921)  # off by more than an ulp when the cache grew in offset blocks
    @settings(max_examples=60, deadline=None)
    def test_difference_property(self, n):
        # H(n) - H(n-1) = 1/n up to 1 ulp of H(n)
        diff = harmonic_number(n) - harmonic_number(n - 1)
        assert abs(diff - 1.0 / n) <= math.ulp(harmonic_number(n))

    def test_monotone(self):
        pref = harmonic_prefix(1000)
        assert np.all(np.diff(pref) > 0)

    def test_past_cache_rejected(self):
        top = HARMONIC_CACHE_LIMIT
        assert harmonic_number(top) == harmonic_prefix(top)[top]
        with pytest.raises(ValueError, match="cached up to"):
            harmonic_number(top + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_number(-1)

    def test_just_past_the_cache_is_the_running_sum(self, monkeypatch):
        # The cache as at import; a call one past its end grows it, and every
        # entry continues the running sum fl(H(k-1) + 1/k).
        monkeypatch.setattr(core, "_harmonic", core._harmonic[:1024])
        n = len(core._harmonic)
        running = [0.0]
        for k in range(1, n + 1):
            running.append(running[-1] + 1.0 / k)
        assert harmonic_number(n) == running[n]
        assert core._harmonic[:n + 1] == running


class TestQuadrature:
    def test_constant(self):
        r = quadrature_1d(lambda x: np.ones_like(x), 0.0, 1.0)
        assert r.value == pytest.approx(1.0, abs=1e-13)

    def test_log_closed_form(self):
        r = quadrature_1d(lambda x: 1.0 / (1.0 + x), 1.0, 3.0)
        assert r.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_shifted_rational_closed_form(self):
        r = quadrature_1d(lambda x: 1.0 / (1.0 + 0.5 * x), 1.0, 3.0)
        expected = 2.0 * (math.log(2.5) - math.log(1.5))
        assert r.value == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
        st.floats(min_value=-2.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_polynomials_up_to_degree_5_exact(self, coeffs, a, span):
        b = a + span
        poly = np.polynomial.Polynomial(coeffs)
        integ = poly.integ()
        r = quadrature_1d(lambda x: poly(x), a, b, tol=1e-11)
        truth = integ(b) - integ(a)
        assert r.value == pytest.approx(truth, abs=max(1e-11, 1e-13 * abs(truth)))

    def test_error_estimate_covers_true_error(self):
        f = lambda x: np.exp(-x) * np.sin(8.0 * x)
        r = quadrature_1d(f, 0.0, 6.0, tol=1e-9)
        truth, _ = integrate.quad(lambda x: math.exp(-x) * math.sin(8.0 * x), 0.0, 6.0)
        assert abs(r.value - truth) <= max(r.error, 1e-12)

    def test_degenerate_interval(self):
        assert quadrature_1d(lambda x: x, 2.0, 2.0).value == 0.0

    def test_budget_exhaustion_reported(self):
        f = lambda x: np.abs(x) ** -0.95
        with pytest.raises(QuadratureError) as exc:
            quadrature_1d(f, 1e-300, 1.0, tol=1e-14)
        assert exc.value.error > 0.0

    def test_vector_integrand_matches_scalar_calls(self):
        rates = np.array([0.5, 1.0, 4.0])
        r = quadrature_1d(lambda x: np.exp(-np.outer(rates, x)), 0.0, 3.0, tol=1e-12)
        assert r.value.shape == (3,)
        for rate, value in zip(rates, r.value):
            scalar = quadrature_1d(lambda x: np.exp(-rate * x), 0.0, 3.0, tol=1e-12).value
            assert value == pytest.approx(scalar, abs=1e-12)
            assert value == pytest.approx(-math.expm1(-3.0 * rate) / rate, abs=1e-12)

    def test_unreachable_tol_raises_at_roundoff(self):
        # exact at every degree, so successive degrees can tie: round-off remains
        with pytest.raises(QuadratureError) as exc:
            quadrature_1d(lambda x: x * x, -1.0, 2.0, tol=1e-30)
        assert abs(exc.value.value - 3.0) <= exc.value.error < 1e-14

    def test_non_finite_integrand_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            quadrature_1d(lambda x: np.log(x), 0.0, 1.0)

    def test_bad_limits(self):
        with pytest.raises(ValueError):
            quadrature_1d(lambda x: x, 1.0, 0.0)


class TestOrderedSimplexIntegral:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 20])
    def test_volume(self, n):
        ones = [lambda m: np.ones_like(m)] * n
        lo, hi = 1.0, 3.0
        val, err = ordered_simplex_integral(ones, lo, hi, tol=1e-10)
        expected = (hi - lo) ** n / math.factorial(n)
        assert val == pytest.approx(expected, abs=1e-9)

    def test_separable_product(self):
        # int over {1<=m1<=m2<=2} of m1*m2 = int_1^2 m2 * (m2^2-1)/2 dm2
        factors = [lambda m: m, lambda m: m]
        val, _ = ordered_simplex_integral(factors, 1.0, 2.0, tol=1e-11)
        truth, _ = integrate.quad(lambda m2: m2 * (m2 * m2 - 1.0) / 2.0, 1.0, 2.0)
        assert val == pytest.approx(truth, abs=1e-10)

    def test_unreachable_tol_raises_with_estimate(self):
        # a symmetric integrand: the box integral is (int_1^3 dm/(1+m))^3 / 3!
        factors = [lambda m: 1.0 / (1.0 + m)] * 3
        with pytest.raises(QuadratureError) as exc:
            ordered_simplex_integral(factors, 1.0, 3.0, tol=1e-30)
        assert exc.value.value == pytest.approx(math.log(2.0) ** 3 / 6.0, abs=1e-14)
        assert 0.0 < exc.value.error < 1e-14

    def test_unreachable_tol_raises_at_roundoff(self):
        # one coordinate, a polynomial: successive degrees can tie bit for bit
        with pytest.raises(QuadratureError) as exc:
            ordered_simplex_integral([lambda m: m * m], 1.0, 3.0, tol=1e-30)
        assert abs(exc.value.value - 26.0 / 3.0) <= exc.value.error < 1e-13

    def test_non_finite_factor_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            ordered_simplex_integral([lambda m: 1.0 / (1.0 + m)], -1.0, 2.0)

    @pytest.mark.parametrize("n", [4, 5])
    def test_error_estimate_covers_the_closed_form(self, n):
        # int over 0 <= m_1 <= ... <= m_n <= 1 of prod m_j^{a_j} is
        # prod_j 1 / (a_1 + ... + a_j + j).  With a_j in 0..3 the reported
        # error bounds the true one through n = 5, the densities' quadrature
        # limit; from n = 6, or with larger powers, it can fall below it.
        rng = make_rng(n)
        for _ in range(200):
            a = rng.integers(0, 4, size=n)
            exact = math.prod(1.0 / (s + j) for j, s in enumerate(np.cumsum(a).tolist(), 1))
            tol = 1e-10 * exact
            val, err = ordered_simplex_integral([lambda m, k=int(k): m**k for k in a],
                                                0.0, 1.0, tol=tol)
            assert abs(val - exact) <= err <= tol, (a, val - exact, err)

    def test_batched_factors_match_per_row_calls(self):
        # factors shaped (3, 1, nodes), (4, nodes) and (nodes,) broadcast to a
        # (3, 4) table holding each combination's own integral
        a = np.array([0.5, 1.0, 2.0])
        b = np.array([0.0, 0.3, 1.1, 2.5])
        table, err = ordered_simplex_integral(
            [lambda m: np.exp(-a[:, None, None] * m),
             lambda m: 1.0 / (1.0 + b[:, None] * m),
             lambda m: m], 1.0, 2.0, tol=1e-12)
        assert table.shape == (3, 4) and err <= 1e-12
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                one, _ = ordered_simplex_integral(
                    [lambda m: np.exp(-ai * m), lambda m: 1.0 / (1.0 + bj * m),
                     lambda m: m], 1.0, 2.0, tol=1e-12)
                assert table[i, j] == pytest.approx(one, rel=1e-14)
