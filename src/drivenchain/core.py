"""Shared domain types and numerical utilities.

Everything downstream (exact measures, simulators, verifier) builds on the
pieces collected here: validated chain parameters, reproducible random
streams, harmonic numbers, and one Chebyshev integrator with explicit
convergence reporting: Clenshaw-Curtis on an interval, and cumulative
integration over the ordered box lo <= m_1 <= ... <= m_n <= hi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

__all__ = [
    "ChainParams",
    "make_rng",
    "harmonic_number",
    "harmonic_prefix",
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
    """H(n) = sum_{k=1}^{n} 1/k, with H(0) = 0: the cached partial sum.

    ValueError past ``HARMONIC_CACHE_LIMIT``.
    """
    if n < 0:
        raise ValueError(f"harmonic_number needs n >= 0, got {n}")
    if n >= len(_harmonic):
        return harmonic_prefix(n)[n]
    return _harmonic[n]


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
    and ``cumulative``, which maps values g at m, on their last axis, to the
    values of int_a^m g at m.  It returns values shaped (..., nodes).  The
    degree steps along ``CHEB_DEGREES`` until the integral at two successive
    degrees agrees within ``tol`` in every entry.  The error is that largest
    change, but never below the round-off of the weighted sum that produced
    the value.
    """
    half = 0.5 * (b - a)
    value = 0.0
    for degree in CHEB_DEGREES:
        t, cumsum = _cheb_cumsum(degree)
        m = a + half * (t + 1.0)
        m[-1] = b  # exactly: integrands may vanish outside [a, b]
        g = np.asarray(integrand(m, lambda v: half * (v @ cumsum.T)), dtype=float)
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
) -> tuple[float | np.ndarray, float]:
    """Integral of prod_x factors[x](m_x) over the ordered box lo <= m_1 <= ... <= m_n <= hi.

    ``factors[x]`` maps an array of m values to the x-th per-coordinate factor.
    F_j(m) = int_lo^m factors[j-1](u) F_{j-1}(u) du, F_0 = 1, is carried as its
    values at the Chebyshev points of [lo, hi], one matvec per coordinate, and
    F_n(hi) is read out on the same degree ladder as :func:`quadrature_1d`.
    Factors may return (..., nodes) values that broadcast together; the value
    is then the broadcast array, the error its largest.  Returns (F_n(hi),
    its error); raises :class:`QuadratureError` when the largest degree
    still misses ``tol``.
    """
    def integrand(m, cumulative):
        values = 1.0
        for f in factors[:-1]:
            values = cumulative(f(m) * values)
        return factors[-1](m) * values

    value, error, _ = _chebyshev_ladder(integrand, lo, hi, tol, "ordered-box integral")
    return value, error
