"""Exact invariant measures of the two boundary-driven chains.

Both stationary laws are mixtures of inhomogeneous product measures: draw a
hidden profile ``m`` uniformly from the ordered box
``lo <= m_1 <= ... <= m_N <= hi`` (the sorted values of N i.i.d. uniforms),
then sample each site independently -- geometric with mean ``m_x`` for the
particle chain on [rho_a, rho_b], exponential with mean ``m_x`` for the
energy chain on [t_a, t_b].  This module samples those laws, evaluates their
densities by Chebyshev integration over the ordered box (n <= 4) or Monte
Carlo (larger n), and reduces them to marginals and moments for the
statistical test harness.
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
    "mgf_geometric",
    "mgf_exponential",
    "mixture_density_discrete",
    "mixture_density_continuous",
    "marginal_pmf_discrete",
    "marginal_cdf_continuous",
    "order_stat_density",
    "moment_profile",
]


class Model(str, Enum):
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class MixtureSpec:
    """A chain parameter set together with which of the two models it feeds."""

    params: ChainParams
    model: Model

    @property
    def interval(self) -> tuple[float, float]:
        p = self.params
        if self.model is Model.DISCRETE:
            return p.rho_a, p.rho_b
        return p.t_a, p.t_b


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    error: float
    method: str  # "product" | "quadrature" | "monte-carlo"
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
# Elementary laws and generating functions
# ---------------------------------------------------------------------------

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
    log_p = -np.log1p(m_arr) + k_arr * (np.log(m_arr) - np.log1p(m_arr))
    out = np.exp(log_p)
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
    out = np.exp(-z_arr / m_arr) / m_arr
    if np.isscalar(m) and np.isscalar(z):
        return float(out)
    return out


def mgf_geometric(m, lam: float):
    """Generating function sum_k pmf(k) lam^k = 1 / (1 + (1 - lam) m).

    Valid for 0 <= lam < (1+m)/m; raises outside that range.  ``m`` may be an
    array (sharing one lam), in which case the domain bound uses its largest
    element.
    """
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr <= 0.0):
        raise ValueError("mgf_geometric needs m > 0")
    m_max = float(np.max(m_arr))
    if lam < 0.0 or lam >= (1.0 + m_max) / m_max:
        raise ValueError(f"lam={lam} outside [0, (1+m)/m) for m={m_max}")
    out = 1.0 / (1.0 + (1.0 - lam) * m_arr)
    return float(out) if np.isscalar(m) else out


def mgf_exponential(m, t: float):
    """Generating function of the exponential law: 1 / (1 - t m), t < 1/m."""
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr <= 0.0):
        raise ValueError("mgf_exponential needs m > 0")
    m_max = float(np.max(m_arr))
    if t >= 1.0 / m_max:
        raise ValueError(f"t={t} not below 1/m for m={m_max}")
    out = 1.0 / (1.0 - t * m_arr)
    return float(out) if np.isscalar(m) else out


# ---------------------------------------------------------------------------
# Mixture densities
# ---------------------------------------------------------------------------

QUADRATURE_MAX_SITES = 4


def _check_config(values: np.ndarray, n: int, integral: bool) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape != (n,):
        raise ValueError(f"configuration must have shape ({n},), got {arr.shape}")
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
    factor,
    product_value: float,
) -> DensityEstimate:
    lo, hi = spec.interval
    n = spec.params.n
    if lo == hi:
        return DensityEstimate(product_value, 0.0, "product")
    width = hi - lo
    if n <= QUADRATURE_MAX_SITES:
        # Integrate in unit-box coordinates m = lo + width*u: the density is
        # n! times the unit-simplex integral, and the integrand stays O(1)
        # however narrow the parameter interval is.
        norm = math.factorial(n)
        factors = [
            (lambda u, x=x: factor(lo + width * u, values[x])) for x in range(n)
        ]
        raw, raw_err = ordered_simplex_integral(factors, 0.0, 1.0, tol=tol / norm)
        return DensityEstimate(norm * raw, norm * raw_err, "quadrature")
    # Monte Carlo over the ordered box: sorted uniforms are uniform on it,
    # so the mixture value is the plain sample mean of the product kernel.
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    rng = make_rng(seed)
    batch = min(mc_samples, 1 << 18)
    total = 0.0
    total_sq = 0.0
    drawn = 0
    while drawn < mc_samples:
        b = min(batch, mc_samples - drawn)
        m = rng.uniform(lo, hi, size=(b, n))
        m.sort(axis=-1)
        vals = np.prod(factor(m, values[np.newaxis, :]), axis=1)
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
    """Stationary probability of a particle configuration.

    For n <= QUADRATURE_MAX_SITES, the Chebyshev ordered-box integral of
    :func:`drivenchain.core.ordered_simplex_integral`; beyond, Monte Carlo
    over ``mc_samples`` sorted uniform profiles drawn from ``seed``
    (``mc_samples`` < 1 is a ValueError).  The degenerate interval
    rho_a == rho_b short-circuits to the product geometric pmf.
    """
    if spec.model is not Model.DISCRETE:
        raise ValueError("spec.model must be DISCRETE")
    eta = _check_config(eta, spec.params.n, integral=True)
    lo, _ = spec.interval
    product = float(np.prod(geometric_pmf(np.full(spec.params.n, lo), eta)))
    return _mixture_density(spec, eta, tol, mc_samples, seed, geometric_pmf, product)


def mixture_density_continuous(
    spec: MixtureSpec,
    z,
    tol: float = 1e-10,
    mc_samples: int = 10_000_000,
    seed: int = 0,
) -> DensityEstimate:
    """Stationary density of an energy configuration (same scheme as discrete)."""
    if spec.model is not Model.CONTINUOUS:
        raise ValueError("spec.model must be CONTINUOUS")
    z = _check_config(z, spec.params.n, integral=False).astype(float)
    lo, _ = spec.interval
    product = float(np.prod(exponential_pdf(np.full(spec.params.n, lo), z)))
    return _mixture_density(spec, z, tol, mc_samples, seed, exponential_pdf, product)


# ---------------------------------------------------------------------------
# Marginals and moments
# ---------------------------------------------------------------------------

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


def marginal_pmf_discrete(
    spec: MixtureSpec, x: int, k, tol: float = 1e-11
) -> np.ndarray | float:
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
    f = lambda m: geometric_pmf(m, k_arr[..., np.newaxis]) * order_stat_density(lo, hi, x, n, m)
    out = np.reshape(quadrature_1d(f, lo, hi, tol).value, k_arr.shape)
    return float(out) if out.ndim == 0 else out


def marginal_cdf_continuous(
    spec: MixtureSpec, x: int, z, tol: float = 1e-11
) -> np.ndarray | float:
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
        out = np.reshape(quadrature_1d(f, lo, hi, tol).value, z_arr.shape)
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
