"""Exact invariant measures of the two boundary-driven chains.

Both stationary laws are mixtures of inhomogeneous product measures: draw a
hidden profile ``m`` uniformly from the ordered box
``lo <= m_1 <= ... <= m_N <= hi`` (the sorted values of N i.i.d. uniforms),
then sample each site independently -- geometric with mean ``m_x`` for the
particle chain on [rho_a, rho_b], exponential with mean ``m_x`` for the
energy chain on [t_a, t_b].  This module samples those laws, evaluates their
densities by Chebyshev integration over the ordered box (n <= 4; one
configuration or a whole table of them per call) or Monte Carlo (larger n),
and reduces them to marginals and moments for the statistical test harness.
``Model`` names the chain and holds what the two site laws share: the
generating function 1 / (1 + c(s) m) of mean m, its coefficient c(s) and the
arguments s where it holds, which the identity checks in ``verify`` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    ChainParams,
    make_rng,
    ordered_simplex_integral,
    quadrature_1d,
)

__all__ = [
    "Model",
    "MixtureSpec",
    "DensityEstimate",
    "ProfileMoments",
    "sample_ordered_profile",
    "sample_exact_discrete",
    "sample_exact_continuous",
    "geometric_pmf",
    "exponential_pdf",
    "mixture_density_discrete",
    "mixture_density_continuous",
    "marginal_pmf_discrete",
    "marginal_cdf_continuous",
    "order_stat_density",
    "moment_profile",
]


class Model(str, Enum):
    """Which chain: particles (geometric sites) or energies (exponential sites).

    Both site laws of mean m have the generating function 1 / (1 + c(s) m):
    sum_k pmf(k) lam^k with c = 1 - lam, and E e^{t z} with c = -t.
    """

    DISCRETE = "discrete"
    CONTINUOUS = "continuous"

    @property
    def argument(self) -> str:
        """Name of the generating function's argument s: ``lam`` or ``t``."""
        return "lam" if self is Model.DISCRETE else "t"

    def mgf_coefficient(self, s):
        """c(s) in the site generating function 1 / (1 + c(s) m)."""
        return 1.0 - s if self is Model.DISCRETE else -s

    def validate_mgf_arguments(self, s, m: float) -> None:
        """ValueError unless every s keeps 1 / (1 + c(s) m') the generating
        function at every mean m' <= m: c(s) > -1/m, and lam >= 0 for particles."""
        s = np.asarray(s, dtype=float)
        particles = self is Model.DISCRETE
        if np.any(self.mgf_coefficient(s) <= -1.0 / m) or (particles and np.any(s < 0.0)):
            raise ValueError(f"{self.argument} = {s.tolist()} outside the generating function's "
                             f"domain at m = {m}: c({self.argument}) > -1/m"
                             + (", lam >= 0" if particles else ""))


@dataclass(frozen=True)
class MixtureSpec:
    """A chain parameter set together with which of the two models it feeds.

    ``model`` may be given by name; an unknown name is a ValueError.
    """

    params: ChainParams
    model: Model

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", Model(self.model))

    @property
    def interval(self) -> tuple[float, float]:
        p = self.params
        if self.model is Model.DISCRETE:
            return p.rho_a, p.rho_b
        return p.t_a, p.t_b


@dataclass(frozen=True)
class DensityEstimate:
    value: float | np.ndarray  # an array for an (n, K) grid
    error: float
    method: str  # "quadrature" | "monte-carlo"
    samples: int = 0


@dataclass(frozen=True)
class ProfileMoments:
    means: np.ndarray
    covariance: np.ndarray


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_ordered_profile(
    spec: MixtureSpec, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Uniform draw(s) from the ordered box: N sorted uniforms on [lo, hi].

    Returns shape (n,) or (size, n); rows are ascending.
    """
    lo, hi = spec.interval
    n = spec.params.n
    shape = (n,) if size is None else (size, n)
    m = rng.uniform(lo, hi, size=shape)
    m.sort(axis=-1)
    return m


def sample_exact_discrete(
    spec: MixtureSpec, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Stationary particle configuration(s): geometrics over a hidden profile."""
    if spec.model is not Model.DISCRETE:
        raise ValueError("spec.model must be DISCRETE")
    m = sample_ordered_profile(spec, rng, size)
    # numpy's geometric counts trials >= 1; the occupation counts failures.
    return rng.geometric(1.0 / (1.0 + m)) - 1


def sample_exact_continuous(
    spec: MixtureSpec, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Stationary energy configuration(s): exponentials over a hidden profile."""
    if spec.model is not Model.CONTINUOUS:
        raise ValueError("spec.model must be CONTINUOUS")
    m = sample_ordered_profile(spec, rng, size)
    return rng.exponential(m)


# ---------------------------------------------------------------------------
# Elementary laws
# ---------------------------------------------------------------------------

def _geometric_pmf(m, k):
    """:func:`geometric_pmf` without its argument checks, for validated m > 0, k >= 0."""
    return np.exp(-np.log1p(m) + k * (np.log(m) - np.log1p(m)))


def _exponential_pdf(m, z):
    """:func:`exponential_pdf` without its argument checks, for validated m > 0, z >= 0."""
    return np.exp(-z / m) / m


def geometric_pmf(m, k):
    """P(eta = k) for the geometric law of mean m: (1/(1+m)) (m/(1+m))^k.

    Accepts scalars or broadcastable arrays; evaluated in log space so large
    k does not underflow prematurely.
    """
    m_arr = np.asarray(m, dtype=float)
    k_arr = np.asarray(k)
    if np.any(m_arr <= 0.0):
        raise ValueError("geometric_pmf needs m > 0")
    if np.any(k_arr < 0):
        raise ValueError("geometric_pmf needs k >= 0")
    out = _geometric_pmf(m_arr, k_arr)
    if np.isscalar(m) and np.isscalar(k):
        return float(out)
    return out


def exponential_pdf(m, z):
    """Density (1/m) exp(-z/m) of the exponential law of mean m, z >= 0."""
    m_arr = np.asarray(m, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    if np.any(m_arr <= 0.0):
        raise ValueError("exponential_pdf needs m > 0")
    if np.any(z_arr < 0.0):
        raise ValueError("exponential_pdf needs z >= 0")
    out = _exponential_pdf(m_arr, z_arr)
    if np.isscalar(m) and np.isscalar(z):
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Mixture densities
# ---------------------------------------------------------------------------

QUADRATURE_MAX_SITES = 4


def _check_config(values: np.ndarray, n: int, integral: bool) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim not in (1, 2) or arr.shape[0] != n:
        raise ValueError(f"configuration must have shape ({n},) or ({n}, K), got {arr.shape}")
    if integral and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ValueError("particle configuration must be integer-valued")
        arr = arr.astype(np.int64)
    if np.any(arr < 0):
        raise ValueError("configuration entries must be non-negative")
    return arr


def _mixture_density(
    spec: MixtureSpec,
    values: np.ndarray,
    tol: float,
    mc_samples: int,
    seed: int,
    law,
    kernel,
) -> DensityEstimate:
    """``values`` is a validated configuration (n,) or grid (n, K).  ``law``,
    the checked site law, runs first at m = lo and rejects lo <= 0, the
    smallest mean its unchecked twin ``kernel`` is then given.  A degenerate
    interval lo == hi takes the same path: the box has width 0."""
    lo, hi = spec.interval
    n = spec.params.n
    grid = values.ndim == 2
    law(lo, values)
    if grid and n > QUADRATURE_MAX_SITES:
        raise ValueError(f"a ({n}, K) grid needs n <= {QUADRATURE_MAX_SITES} (quadrature)")
    width = hi - lo
    if n <= QUADRATURE_MAX_SITES:
        # Integrate in unit-box coordinates m = lo + width*u: the density is
        # n! times the unit-simplex integral, and the integrand stays O(1)
        # however narrow the parameter interval is.  A grid's row x goes on
        # axis x of n, so the factors broadcast to the (K,)*n table.
        norm = math.factorial(n)
        if grid:
            values = [row.reshape((-1,) + (1,) * (n - x)) for x, row in enumerate(values)]
        factors = [(lambda u, v=v: kernel(lo + width * u, v)) for v in values]
        raw, raw_err = ordered_simplex_integral(factors, 0.0, 1.0, tol=tol / norm)
        return DensityEstimate(norm * raw, norm * raw_err, "quadrature")
    # Monte Carlo over the ordered box: sorted uniforms are uniform on it,
    # so the mixture value is the plain sample mean of the product kernel.
    if mc_samples < 2:
        raise ValueError(f"mc_samples must be >= 2, got {mc_samples}")
    rng = make_rng(seed)
    batch = min(mc_samples, 1 << 18)
    total = 0.0
    total_sq = 0.0
    drawn = 0
    while drawn < mc_samples:
        b = min(batch, mc_samples - drawn)
        m = sample_ordered_profile(spec, rng, b)
        vals = np.prod(kernel(m, values[np.newaxis, :]), axis=1)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        drawn += b
        mean = total / drawn
        var = max(total_sq / drawn - mean * mean, 0.0)
        se = math.sqrt(var / drawn)
        if drawn >= batch and se <= tol:
            break
    return DensityEstimate(mean, se, "monte-carlo", drawn)


def mixture_density_discrete(
    spec: MixtureSpec,
    eta,
    tol: float = 1e-10,
    mc_samples: int = 10_000_000,
    seed: int = 0,
) -> DensityEstimate:
    """Stationary probability of a particle configuration (n,), or the
    (K,)*n table of an (n, K) grid whose row x holds site x's values.

    For n <= QUADRATURE_MAX_SITES, the Chebyshev ordered-box integral of
    :func:`drivenchain.core.ordered_simplex_integral`, one call for a whole
    table; beyond, Monte Carlo over ``mc_samples`` sorted uniform profiles
    drawn from ``seed`` (``mc_samples`` < 2, which leaves no standard error,
    or a grid, is a ValueError).
    The degenerate interval rho_a == rho_b, whose mixture is the product
    geometric pmf, is integrated like any other.
    """
    if spec.model is not Model.DISCRETE:
        raise ValueError("spec.model must be DISCRETE")
    eta = _check_config(eta, spec.params.n, integral=True)
    return _mixture_density(spec, eta, tol, mc_samples, seed, geometric_pmf, _geometric_pmf)


def mixture_density_continuous(
    spec: MixtureSpec,
    z,
    tol: float = 1e-10,
    mc_samples: int = 10_000_000,
    seed: int = 0,
) -> DensityEstimate:
    """Stationary density of an energy configuration or grid (same scheme as discrete)."""
    if spec.model is not Model.CONTINUOUS:
        raise ValueError("spec.model must be CONTINUOUS")
    z = _check_config(z, spec.params.n, integral=False).astype(float)
    return _mixture_density(spec, z, tol, mc_samples, seed, exponential_pdf, _exponential_pdf)


# ---------------------------------------------------------------------------
# Marginals and moments
# ---------------------------------------------------------------------------

# Quadrature tolerance of every marginal: the error bound on each value.
MARGINAL_TOL = 1e-11

def order_stat_density(lo: float, hi: float, x: int, n: int, m) -> np.ndarray:
    """Density of the x-th smallest of n uniforms on [lo, hi] at m.

    A Beta(x, n - x + 1) law shifted and scaled to [lo, hi].
    """
    if not 1 <= x <= n:
        raise ValueError(f"site index x={x} outside 1..{n}")
    m_arr = np.asarray(m, dtype=float)
    u = (m_arr - lo) / (hi - lo)
    c = n * math.comb(n - 1, x - 1)  # = 1 / B(x, n - x + 1)
    out = c * u ** (x - 1) * (1.0 - u) ** (n - x) / (hi - lo)
    return np.where((u >= 0.0) & (u <= 1.0), out, 0.0)


def marginal_pmf_discrete(spec: MixtureSpec, x: int, k) -> np.ndarray | float:
    """P(eta_x = k) under the mixture; ``k`` may be an array of occupations.

    Integrating out every other profile coordinate leaves the x-th order
    statistic, so the marginal is the geometric pmf averaged against a
    shifted-scaled Beta(x, n - x + 1) density: one quadrature for all k.
    """
    if spec.model is not Model.DISCRETE:
        raise ValueError("spec.model must be DISCRETE")
    k_arr = np.asarray(k)
    if np.any(k_arr < 0):
        raise ValueError("k must be >= 0")
    lo, hi = spec.interval
    n = spec.params.n
    if lo == hi:
        return geometric_pmf(lo, k)
    if lo <= 0.0:  # the nodes run from m = lo up
        raise ValueError("geometric_pmf needs m > 0")
    f = lambda m: _geometric_pmf(m, k_arr[..., np.newaxis]) * order_stat_density(lo, hi, x, n, m)
    out = np.reshape(quadrature_1d(f, lo, hi, MARGINAL_TOL).value, k_arr.shape)
    return float(out) if out.ndim == 0 else out


def marginal_cdf_continuous(spec: MixtureSpec, x: int, z) -> np.ndarray | float:
    """CDF of z_x under the mixture; ``z`` may be an array of query points."""
    if spec.model is not Model.CONTINUOUS:
        raise ValueError("spec.model must be CONTINUOUS")
    lo, hi = spec.interval
    n = spec.params.n
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValueError("z must be >= 0")
    if lo == hi:
        out = 1.0 - np.exp(-z_arr / lo)
    else:
        f = lambda m: (
            (1.0 - np.exp(-z_arr[..., np.newaxis] / m)) * order_stat_density(lo, hi, x, n, m)
        )
        out = np.reshape(quadrature_1d(f, lo, hi, MARGINAL_TOL).value, z_arr.shape)
    return float(out) if out.ndim == 0 else out


def moment_profile(spec: MixtureSpec) -> ProfileMoments:
    """Exact site means and covariance matrix of the stationary law.

    Site means are linear in position.  Off-diagonal covariances equal the
    covariances of the hidden profile (sites are independent given the
    profile); diagonals add the conditional geometric/exponential variance
    through the law of total variance.
    """
    lo, hi = spec.interval
    n = spec.params.n
    x = np.arange(1, n + 1, dtype=float)
    width = hi - lo
    means = lo + width * x / (n + 1)
    # Order-statistic second moments of uniforms on [lo, hi].
    var_beta = x * (n + 1 - x) / ((n + 1) ** 2 * (n + 2))
    e_m2 = means**2 + width**2 * var_beta
    xi = np.minimum.outer(x, x)
    yj = np.maximum.outer(x, x)
    cov = width**2 * xi * (n + 1 - yj) / ((n + 1) ** 2 * (n + 2))
    if spec.model is Model.DISCRETE:
        diag = means + 2.0 * e_m2 - means**2
    else:
        diag = 2.0 * e_m2 - means**2
    np.fill_diagonal(cov, diag)
    return ProfileMoments(means=means, covariance=cov)
