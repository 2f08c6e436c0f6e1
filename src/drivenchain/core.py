"""Shared domain types and numerical utilities.

Everything downstream (exact measures, simulators, verifier) builds on the
pieces collected here: validated chain parameters, reproducible random
streams, harmonic numbers, the exponential integral E1, and one Chebyshev
integrator with explicit convergence reporting: Clenshaw-Curtis on an
interval, and cumulative integration over the ordered box
lo <= m_1 <= ... <= m_n <= hi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

EULER_GAMMA = 0.57721566490153286061

__all__ = [
    "ChainParams",
    "make_rng",
    "harmonic_number",
    "harmonic_prefix",
    "exp_integral_e1",
    "quadrature_1d",
    "QuadResult",
    "QuadratureError",
]


@dataclass(frozen=True)
class ChainParams:
    """Bulk size and reservoir parameters for both chain models.

    The particle chain is driven by reservoir parameters ``beta_a <= beta_b``
    in (0, 1); the associated densities ``rho = beta / (1 - beta)`` are
    derived, never stored, so the two cannot drift apart.  The energy chain
    uses reservoir temperatures ``t_a <= t_b``.  Equal boundary values are
    allowed and describe the reversible equilibrium case.
    """

    n: int
    beta_a: float = 0.5
    beta_b: float = 0.5
    t_a: float = 1.0
    t_b: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 < self.beta_a <= self.beta_b < 1.0):
            raise ValueError(
                f"need 0 < beta_a <= beta_b < 1, got ({self.beta_a}, {self.beta_b})"
            )
        if not (0.0 < self.t_a <= self.t_b) or not math.isfinite(self.t_b):
            raise ValueError(f"need 0 < t_a <= t_b < inf, got ({self.t_a}, {self.t_b})")

    @property
    def rho_a(self) -> float:
        return self.beta_a / (1.0 - self.beta_a)

    @property
    def rho_b(self) -> float:
        return self.beta_b / (1.0 - self.beta_b)


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator from a 64-bit seed; same seed, same trajectory."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# Harmonic numbers
# ---------------------------------------------------------------------------

HARMONIC_CACHE_LIMIT = 1_000_000

# _harmonic[j] == H(j), a plain list (python floats index faster than numpy
# scalars in the per-event path); grown geometrically on demand, in place, up
# to the cache limit.
_harmonic: list[float] = [0.0, *np.cumsum(1.0 / np.arange(1, 1024)).tolist()]


def _grow_harmonic(n: int) -> None:
    top = len(_harmonic)
    new_top = min(max(2 * top, n + 1), HARMONIC_CACHE_LIMIT + 1)
    # Continue the running sum itself, so that every entry is
    # fl(H(j-1) + 1/j) whatever sizes the cache grew through.
    ext = np.cumsum(np.concatenate(([_harmonic[-1]], 1.0 / np.arange(top, new_top))))
    _harmonic.extend(ext[1:].tolist())


def harmonic_number(n: int) -> float:
    """H(n) = sum_{k=1}^{n} 1/k, with H(0) = 0.

    Exact cached partial sums up to ``HARMONIC_CACHE_LIMIT``; beyond that the
    asymptotic expansion log n + gamma + 1/(2n) - 1/(12 n^2), whose truncation
    error (~1/(120 n^4)) is far below 1e-12 in that range.
    """
    if n < 0:
        raise ValueError(f"harmonic_number needs n >= 0, got {n}")
    if n <= HARMONIC_CACHE_LIMIT:
        if n >= len(_harmonic):
            _grow_harmonic(n)
        return _harmonic[n]
    return math.log(n) + EULER_GAMMA + 1.0 / (2.0 * n) - 1.0 / (12.0 * n * n)


def harmonic_prefix(n: int) -> list[float]:
    """The cached prefix sums [H(0), H(1), ...], grown to hold H(n), n within cache.

    This is the cache itself, not a copy, and it may run past H(n).
    """
    if n > HARMONIC_CACHE_LIMIT:
        raise ValueError(f"prefix sums only cached up to {HARMONIC_CACHE_LIMIT}")
    if n >= len(_harmonic):
        _grow_harmonic(n)
    return _harmonic


# ---------------------------------------------------------------------------
# Exponential integral E1
# ---------------------------------------------------------------------------

def exp_integral_e1(x: float) -> float:
    """E1(x) = integral of exp(-t)/t from x to infinity, x > 0.

    Power series for x <= 1, modified-Lentz continued fraction for x > 1;
    both converge to well under 1e-10 relative error on their branches.
    """
    if not x > 0.0:
        raise ValueError(f"exp_integral_e1 needs x > 0, got {x}")
    if x <= 1.0:
        # E1(x) = -gamma - log x + sum_{k>=1} (-1)^{k+1} x^k / (k * k!)
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-18 * max(abs(total), 1e-300):
                break
        return total
    # Continued fraction E1(x) = e^{-x} / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x)


# ---------------------------------------------------------------------------
# Weighted selection over dynamic rates
# ---------------------------------------------------------------------------

RESYNC_DRIFT_TOL = 1e-9  # largest relative rate-cache drift a resync accepts


class FenwickTree:
    """Binary indexed tree over non-negative weights with prefix search.

    Supports O(log n) point updates and O(log n) inversion of the cumulative
    weight function, which is what an event-driven simulator needs to pick a
    channel proportionally to its rate when the channel count is large.
    """

    __slots__ = ("n", "tree")

    def __init__(self, weights: Sequence[float]):
        self.n = len(weights)
        self.tree = [0.0] * (self.n + 1)
        for i, w in enumerate(weights):
            self.add(i, w)

    def add(self, i: int, delta: float) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def total(self) -> float:
        i = self.n
        s = 0.0
        while i > 0:
            s += self.tree[i]
            i &= i - 1
        return s

    def search(self, u: float) -> tuple[int, float]:
        """Index whose cumulative-weight slot [C_i, C_{i+1}) holds u, plus the offset.

        The non-strict comparison skips zero-weight entries even at u == 0,
        matching the linear-scan convention u < C_{i+1}.
        """
        idx = 0
        bit = 1
        while bit << 1 <= self.n:
            bit <<= 1
        while bit:
            nxt = idx + bit
            if nxt <= self.n and self.tree[nxt] <= u:
                idx = nxt
                u -= self.tree[nxt]
            bit >>= 1
        return min(idx, self.n - 1), u


def select_site(rates: list[float], tree: FenwickTree | None, u: float) -> tuple[int, float]:
    """Site x whose two channels (rate ``rates[x]`` each) hold u, and the offset into them.

    Linear scan, or Fenwick search given a tree.  A float spill past the top,
    or an ulp spill onto a zero-rate slot, lands on the last positive-rate site.
    """
    if tree is None:
        for x, r in enumerate(rates):
            two_r = 2.0 * r
            if u < two_r:
                return x, u
            u -= two_r
    else:
        x, u = tree.search(u)
        if rates[x] > 0.0:
            return x, u
    return max(i for i, r in enumerate(rates) if r > 0.0), 0.0


def reset_rates(state, site_rate: list[float]) -> None:
    """Install freshly computed site rates on a simulator state at a resync.

    The relative drift of the incremental ``state.rate_sum`` is recorded in
    ``state.max_resync_drift``; past RESYNC_DRIFT_TOL it is a RuntimeError.
    """
    exact = math.fsum(site_rate)
    drift = abs(state.rate_sum - exact) / max(exact, 1.0)
    state.max_resync_drift = max(state.max_resync_drift, drift)
    if drift > RESYNC_DRIFT_TOL:
        raise RuntimeError(f"rate cache drifted by {drift:.3e} (relative) before resync")
    state.site_rate = site_rate
    state.rate_sum = exact
    if state.tree is not None:
        state.tree = FenwickTree([2.0 * r for r in site_rate])


# ---------------------------------------------------------------------------
# Quadrature: one Chebyshev degree ladder for 1-D and ordered-box integrals
# ---------------------------------------------------------------------------

CHEB_DEGREES = (16, 32, 64, 128, 256, 512)  # tried in turn until two agree
_ROUNDOFF = 4.0 * float(np.finfo(float).eps)  # error floor: 4 ulps of sum |weight * integrand|


class QuadResult(NamedTuple):
    """Value, error and the Chebyshev degree the ladder converged at.

    ``intervals`` holds that degree (0 for an empty interval); the field keeps
    its name because the traced benchmark reads it.
    """

    value: float | np.ndarray
    error: float
    intervals: int


class QuadratureError(RuntimeError):
    """An integrator ran out of degrees before reaching the tolerance."""

    def __init__(self, message: str, value: float | np.ndarray, error: float) -> None:
        super().__init__(message)
        self.value = value
        self.error = error


@functools.cache
def _cheb_cumsum(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Chebyshev points t_k = -cos(pi k / degree) of [-1, 1] and the
    matrix taking values at them to the values of the interpolant's integral
    from -1 (values -> coefficients -> integrated coefficients -> values).
    Its last row holds the Clenshaw-Curtis weights."""
    t = -np.cos(np.pi * np.arange(degree + 1) / degree)
    to_coef = np.linalg.inv(cheb.chebvander(t, degree))
    return t, cheb.chebvander(t, degree + 1) @ cheb.chebint(to_coef, lbnd=-1.0)


def _chebyshev_ladder(integrand: Callable, a: float, b: float, tol: float, what: str) -> QuadResult:
    """Integral over [a, b] of ``integrand(m, cumulative)``, degree by degree.

    ``integrand`` gets the Chebyshev points m of [a, b] (endpoints included)
    and ``cumulative``, which maps values g at m to the values of int_a^m g at
    m.  It returns values shaped (..., nodes).  The degree steps along
    ``CHEB_DEGREES`` until the integral at two successive degrees agrees
    within ``tol`` in every entry.  The error is that largest change, but
    never below the round-off of the weighted sum that produced the value.
    """
    half = 0.5 * (b - a)
    value = 0.0
    for degree in CHEB_DEGREES:
        t, cumsum = _cheb_cumsum(degree)
        m = a + half * (t + 1.0)
        m[-1] = b  # exactly: integrands may vanish outside [a, b]
        g = np.asarray(integrand(m, lambda v: half * (cumsum @ v)), dtype=float)
        weights = cumsum[-1]  # positive, so the sum is finite iff every g is
        previous, value = value, half * (g @ weights)
        error = np.abs(value - previous).max()
        if not math.isfinite(error):
            raise ValueError(f"integrand returned non-finite values on [{a}, {b}]")
        if error <= tol and degree > CHEB_DEGREES[0]:
            # Two degrees can agree to the last bit; round-off still remains.
            error = max(error, _ROUNDOFF * half * (np.abs(g) @ weights).max())
            if error <= tol:
                return QuadResult(value if np.ndim(value) else float(value), float(error), degree)
    raise QuadratureError(
        f"{what} error {error:.3e} > tol {tol:.3e} at degree {CHEB_DEGREES[-1]}",
        value, float(error),
    )


def quadrature_1d(f: Callable, a: float, b: float, tol: float = 1e-10) -> QuadResult:
    """Clenshaw-Curtis estimate of the integral of f over [a, b].

    ``f`` is called on the array of nodes (endpoints included) and may return
    values shaped (..., nodes); the value is then an array and the error the
    largest over its entries.  Raises :class:`QuadratureError` when the
    largest degree still misses ``tol``, never silently truncates.
    """
    if a > b:
        raise ValueError(f"need a <= b, got ({a}, {b})")
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    return _chebyshev_ladder(lambda m, cumulative: f(m), a, b, tol, "quadrature")


def ordered_simplex_integral(
    factors: Sequence[Callable[[np.ndarray], np.ndarray]],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Integral of prod_x factors[x](m_x) over the ordered box lo <= m_1 <= ... <= m_n <= hi.

    ``factors[x]`` maps an array of m values to the x-th per-coordinate factor.
    F_j(m) = int_lo^m factors[j-1](u) F_{j-1}(u) du, F_0 = 1, is carried as its
    values at the Chebyshev points of [lo, hi], one matvec per coordinate, and
    F_n(hi) is read out on the same degree ladder as :func:`quadrature_1d`.
    Returns (F_n(hi), its error); raises :class:`QuadratureError` when the
    largest degree still misses ``tol``.
    """
    def integrand(m, cumulative):
        values = 1.0
        for f in factors[:-1]:
            values = cumulative(f(m) * values)
        return factors[-1](m) * values

    value, error, _ = _chebyshev_ladder(integrand, lo, hi, tol, "ordered-box integral")
    return value, error
