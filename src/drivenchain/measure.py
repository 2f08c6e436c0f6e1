"""Exact invariant measures of the two boundary-driven chains.

Both stationary laws are mixtures of inhomogeneous product measures: draw a
hidden profile ``m`` uniformly from the ordered box
``lo <= m_1 <= ... <= m_N <= hi`` (the sorted values of N i.i.d. uniforms),
then sample each site independently -- geometric with mean ``m_x`` for the
particle chain on [rho_a, rho_b], exponential with mean ``m_x`` for the
energy chain on [t_a, t_b].  This module samples those laws, evaluates their
densities by Chebyshev integration over the ordered box (n <= 5, to ``tol``;
one configuration or a whole table of them per call) or Monte Carlo (only
when the caller passes ``mc_samples``, which beyond n = 5 it must), and
reduces them to marginals and moments for the statistical test harness.
``verify``'s ordered-box checks share that rule (``uses_quadrature``) and
the one Monte Carlo loop.
The site law is the only difference, so each ``Model`` member holds one
frozen ``SiteLaw``, and each sampler, density and marginal is one body that
reads it behind one-line ``*_discrete``/``*_continuous`` entries.  A record
holds no function a caller may replace by module attribute (the entries,
``quadrature_1d``): those are looked up at each call, so a replacement sees all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import (
    ChainParams,
    make_rng,
    ordered_simplex_integral,
    quadrature_1d,
)

__all__ = [
    "Model",
    "SiteLaw",
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


# ---------------------------------------------------------------------------
# Elementary laws
# ---------------------------------------------------------------------------

def _geometric_pmf(m, k):
    """:func:`geometric_pmf` without its argument checks, for validated m > 0, k >= 0."""
    return np.exp(-np.log1p(m) + k * (np.log(m) - np.log1p(m)))


def _exponential_pdf(m, z):
    """:func:`exponential_pdf` without its argument checks, for validated m > 0, z >= 0."""
    return np.exp(-z / m) / m


def _checked(kernel, name: str, value: str, m, v, integer: bool = False):
    """``kernel(m, v)`` once finite m > 0, v >= 0 and ``integer`` v hold (a NaN
    fails them: an ``integer`` v as non-integer); a float for scalar m and v."""
    m_arr, v_arr = np.asarray(m, dtype=float), np.asarray(v, dtype=float)
    if not np.all((m_arr > 0.0) & (m_arr < math.inf)):
        raise ValueError(f"{name} needs m > 0")
    if np.any(v_arr < 0.0) or (not integer and np.any(np.isnan(v_arr))):
        raise ValueError(f"{name} needs {value} >= 0")
    if integer and not np.all(v_arr == np.floor(v_arr)):
        raise ValueError(f"{name} needs integer {value}")
    out = kernel(m_arr, v_arr)
    return float(out) if np.isscalar(m) and np.isscalar(v) else out


def geometric_pmf(m, k):
    """P(eta = k) for the geometric law of mean m: (1/(1+m)) (m/(1+m))^k.

    Accepts scalars or broadcastable arrays of integers k >= 0; evaluated in
    log space so large k does not underflow prematurely.
    """
    return _checked(_geometric_pmf, "geometric_pmf", "k", m, k, integer=True)


def exponential_pdf(m, z):
    """Density (1/m) exp(-z/m) of the exponential law of mean m, z >= 0."""
    return _checked(_exponential_pdf, "exponential_pdf", "z", m, z)


# E[v**k | m] for k = 0..4 as coefficients of m**0, m**1, ...  A geometric
# count has factorial moments E[(v)_j] = j! m**j, so E[v**k] = sum_j S(k, j)
# j! m**j with S the Stirling numbers of the second kind; an exponential
# energy has E[v**k] = k! m**k.
_GEOMETRIC_MOMENTS = ((1,), (0, 1), (0, 1, 2), (0, 1, 6, 6), (0, 1, 14, 36, 24))
_EXPONENTIAL_MOMENTS = ((1,), (0, 1), (0, 0, 2), (0, 0, 0, 6), (0, 0, 0, 0, 24))


@dataclass(frozen=True)
class SiteLaw:
    """What a chain's stationary law needs of its site law of mean m.

    Both site laws have the generating function 1 / (1 + c(s) m):
    sum_k pmf(k) lam^k with c = 1 - lam, and E e^{t z} with c = -t.
    """

    interval: Callable[[ChainParams], tuple[float, float]]  # the profile's [lo, hi]
    argument: str  # name of the generating function's argument s
    coefficient: Callable  # c(s)
    argument_floor: float  # least s besides c(s) > -1/m; -inf if none
    dtype: type  # of a configuration: counts or energies
    law: Callable  # law(m, v), pmf or density, rejecting m <= 0, v < 0 and non-integer counts
    kernel: Callable  # law(m, v) unchecked, for validated m > 0, v >= 0
    marginal_kernel: Callable  # (m, v) -> the pmf (counts) or the CDF (energies) at v
    draw: Callable  # (rng, m) -> one site value per mean
    moments: tuple  # moments[k][j]: coefficient of m**j in E[v**k | m], k <= 4

    @property
    def integral(self) -> bool:
        return np.issubdtype(self.dtype, np.integer)


class Model(str, Enum):
    """Which chain: particles (geometric sites) or energies (exponential sites).
    Each member's ``site`` is that chain's ``SiteLaw``."""

    DISCRETE = ("discrete", SiteLaw(
        interval=lambda p: (p.rho_a, p.rho_b), argument="lam", coefficient=lambda s: 1.0 - s,
        argument_floor=0.0, dtype=np.int64, law=geometric_pmf, kernel=_geometric_pmf,
        marginal_kernel=_geometric_pmf, moments=_GEOMETRIC_MOMENTS,
        # numpy's geometric counts trials >= 1; the occupation counts failures.
        draw=lambda rng, m: rng.geometric(1.0 / (1.0 + m)) - 1))
    CONTINUOUS = ("continuous", SiteLaw(
        interval=lambda p: (p.t_a, p.t_b), argument="t", coefficient=lambda s: -s,
        argument_floor=-math.inf, dtype=np.float64, law=exponential_pdf,
        kernel=_exponential_pdf, marginal_kernel=lambda m, z: 1.0 - np.exp(-z / m),
        moments=_EXPONENTIAL_MOMENTS, draw=lambda rng, m: rng.exponential(m)))

    def __new__(cls, value: str, site: SiteLaw):
        member = str.__new__(cls, value)
        member._value_ = value
        member.site = site
        return member

    @property
    def argument(self) -> str:
        """Name of the generating function's argument s: ``lam`` or ``t``."""
        return self.site.argument

    def mgf_coefficient(self, s):
        """c(s) in the site generating function 1 / (1 + c(s) m)."""
        return self.site.coefficient(s)

    def validate_mgf_arguments(self, s, m: float) -> None:
        """ValueError unless every s keeps 1 / (1 + c(s) m') the generating
        function at every mean m' <= m: c(s) > -1/m, and lam >= 0 for particles."""
        s = np.asarray(s, dtype=float)
        floor = self.site.argument_floor
        if np.any(self.mgf_coefficient(s) <= -1.0 / m) or np.any(s < floor):
            raise ValueError(f"{self.argument} = {s.tolist()} outside the generating function's "
                             f"domain at m = {m}: c({self.argument}) > -1/m"
                             + (f", {self.argument} >= {floor:g}" if floor > -math.inf else ""))


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
        return self.model.site.interval(self.params)


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
    product_variance: np.ndarray  # Var((v_x - mu_x)(v_y - mu_y)), (n, n)


def _site(spec: MixtureSpec, model: Model) -> SiteLaw:
    """``model``'s site law; ValueError unless ``spec`` feeds that model."""
    if spec.model is not model:
        raise ValueError(f"spec.model must be {model.name}")
    return model.site


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


def _sample_exact(model: Model, spec: MixtureSpec, rng, size: int | None) -> np.ndarray:
    """Stationary configuration(s) of ``model``: a hidden profile, then one site draw per mean."""
    return _site(spec, model).draw(rng, sample_ordered_profile(spec, rng, size))


def sample_exact_discrete(
    spec: MixtureSpec, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Stationary particle configuration(s): geometrics over a hidden profile."""
    return _sample_exact(Model.DISCRETE, spec, rng, size)


def sample_exact_continuous(
    spec: MixtureSpec, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Stationary energy configuration(s): exponentials over a hidden profile."""
    return _sample_exact(Model.CONTINUOUS, spec, rng, size)


# ---------------------------------------------------------------------------
# Mixture densities
# ---------------------------------------------------------------------------

# An ordered-box integral over n <= QUADRATURE_MAX_SITES sites runs by
# quadrature unless the caller asks for Monte Carlo; beyond, only by Monte
# Carlo over the count the caller passes.  Above five sites the integrator's
# error estimate can fall below its true error near round-off.
# MC_BATCH bounds each (batch, n) draw; MAX_TABLE_ENTRIES bounds a density
# table, K^n entries for an (n, K) grid.
QUADRATURE_MAX_SITES = 5
MC_BATCH = 1 << 19
MAX_TABLE_ENTRIES = 2**18


def uses_quadrature(n: int, mc_samples: int | None) -> bool:
    """Whether an ordered-box integral over n sites runs by quadrature: only
    when no ``mc_samples`` is given and n <= QUADRATURE_MAX_SITES.  Otherwise
    it runs by Monte Carlo over ``mc_samples`` profiles, which beyond the
    limit the caller must pass."""
    return mc_samples is None and n <= QUADRATURE_MAX_SITES


def profile_monte_carlo(draw, weigh, mc_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample means and standard errors of integrands over random profiles.

    ``draw(rng, b)`` returns b profiles (b, n); ``weigh(m)`` yields one (b,)
    array of integrand values per output.  Exactly ``mc_samples`` profiles
    are drawn from ``seed`` in batches of at most MC_BATCH, and each output's
    sum and sum of squares grow batch by batch, whatever the other outputs.
    ``mc_samples`` < 2, which leaves no standard error, is a ValueError.
    """
    if mc_samples < 2:
        raise ValueError(f"mc_samples must be >= 2, got {mc_samples}")
    rng = make_rng(seed)
    totals, drawn = 0.0, 0
    while drawn < mc_samples:
        b = min(MC_BATCH, mc_samples - drawn)
        totals = totals + np.array([(g.sum(), (g * g).sum()) for g in weigh(draw(rng, b))])
        drawn += b
    means = totals[:, 0] / drawn
    return means, np.sqrt(np.maximum(totals[:, 1] / drawn - means**2, 0.0) / drawn)


def _mixture_density(
    model: Model,
    spec: MixtureSpec,
    values,
    tol: float,
    mc_samples: int | None,
    seed: int,
) -> DensityEstimate:
    """The body of both ``mixture_density_*`` entries: ``values`` is a
    configuration (n,) or grid (n, K) of ``model``.  A grid whose K^n table
    exceeds MAX_TABLE_ENTRIES is rejected before anything is built.  The
    site's checked ``law`` then runs at m = lo and rejects lo <= 0, the
    smallest mean its unchecked ``kernel`` is then given, and any value it
    has no law at.  A degenerate interval lo == hi takes the same path: the
    box has width 0."""
    site = _site(spec, model)
    kernel = site.kernel
    lo, hi = spec.interval
    n = spec.params.n
    values = np.asarray(values)
    if values.ndim not in (1, 2) or values.shape[0] != n:
        raise ValueError(f"configuration must have shape ({n},) or ({n}, K), got {values.shape}")
    grid = values.ndim == 2
    if grid and values.shape[1] ** n > MAX_TABLE_ENTRIES:
        raise ValueError(f"a ({n}, {values.shape[1]}) grid needs a {values.shape[1]}^{n} table, "
                         f"above MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}")
    site.law(lo, values)
    values = values.astype(site.dtype, copy=False)
    if not uses_quadrature(n, mc_samples):
        if grid:
            raise ValueError(f"a ({n}, K) grid needs quadrature: n <= {QUADRATURE_MAX_SITES} "
                             "and no mc_samples")
        if mc_samples is None:
            raise ValueError(f"n={n} is above QUADRATURE_MAX_SITES = {QUADRATURE_MAX_SITES}: "
                             "pass mc_samples for Monte Carlo")
        # Sorted uniforms are uniform on the ordered box, so the mixture
        # value is the plain sample mean of the product kernel.
        means, errors = profile_monte_carlo(
            functools.partial(sample_ordered_profile, spec),
            lambda m: [np.prod(kernel(m, values[np.newaxis, :]), axis=1)], mc_samples, seed)
        return DensityEstimate(float(means[0]), float(errors[0]), "monte-carlo", mc_samples)
    # Integrate in unit-box coordinates m = lo + width*u: the density is
    # n! times the unit-simplex integral, and the integrand stays O(1)
    # however narrow the parameter interval is.  A grid's row x goes on
    # axis x of n, so the factors broadcast to the (K,)*n table.
    width = hi - lo
    norm = math.factorial(n)
    if grid:
        values = [row.reshape((-1,) + (1,) * (n - x)) for x, row in enumerate(values)]
    factors = [(lambda u, v=v: kernel(lo + width * u, v)) for v in values]
    raw, raw_err = ordered_simplex_integral(factors, 0.0, 1.0, tol=tol / norm)
    return DensityEstimate(norm * raw, norm * raw_err, "quadrature")


def mixture_density_discrete(
    spec: MixtureSpec,
    eta,
    tol: float = 1e-10,
    mc_samples: int | None = None,
    seed: int = 0,
) -> DensityEstimate:
    """Stationary probability of a particle configuration (n,), or the
    (K,)*n table of an (n, K) grid whose row x holds site x's values; a
    table above MAX_TABLE_ENTRIES is a ValueError.

    Without ``mc_samples`` and for n <= QUADRATURE_MAX_SITES, the Chebyshev
    ordered-box integral of :func:`drivenchain.core.ordered_simplex_integral`
    to ``tol``, one call for a whole table.  Otherwise Monte Carlo over
    exactly ``mc_samples`` sorted uniform profiles from ``seed``, ``tol``
    unread (no ``mc_samples`` beyond the limit, ``mc_samples`` < 2, which
    leaves no standard error, or a grid, is a ValueError).
    The degenerate interval rho_a == rho_b, whose mixture is the product
    geometric pmf, is integrated like any other.
    """
    return _mixture_density(Model.DISCRETE, spec, eta, tol, mc_samples, seed)


def mixture_density_continuous(
    spec: MixtureSpec,
    z,
    tol: float = 1e-10,
    mc_samples: int | None = None,
    seed: int = 0,
) -> DensityEstimate:
    """Stationary density of an energy configuration or grid (same scheme as discrete)."""
    return _mixture_density(Model.CONTINUOUS, spec, z, tol, mc_samples, seed)


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


def _marginal(model: Model, spec: MixtureSpec, x: int, v) -> np.ndarray | float:
    """The body of both ``marginal_*`` entries.  Integrating out every other profile
    coordinate leaves the x-th order statistic, so the marginal is the site's
    ``marginal_kernel`` averaged against a shifted-scaled Beta(x, n - x + 1)
    density: one quadrature for all query points ``v``."""
    site = _site(spec, model)
    v_arr = np.asarray(v, dtype=float)
    lo, hi = spec.interval
    n = spec.params.n
    site.law(lo, v_arr)  # rejects v < 0, and lo <= 0: the nodes run from m = lo up
    if lo == hi:
        out = site.marginal_kernel(lo, v_arr)
    else:
        f = lambda m: (site.marginal_kernel(m, v_arr[..., np.newaxis])
                       * order_stat_density(lo, hi, x, n, m))
        out = np.reshape(quadrature_1d(f, lo, hi, MARGINAL_TOL).value, v_arr.shape)
    return float(out) if out.ndim == 0 else out


def marginal_pmf_discrete(spec: MixtureSpec, x: int, k) -> np.ndarray | float:
    """P(eta_x = k) under the mixture; ``k`` may be an array of occupations."""
    return _marginal(Model.DISCRETE, spec, x, k)


def marginal_cdf_continuous(spec: MixtureSpec, x: int, z) -> np.ndarray | float:
    """CDF of z_x under the mixture; ``z`` may be an array of query points."""
    return _marginal(Model.CONTINUOUS, spec, x, z)


def _rising(q, k: int):
    """The rising factorial (q)_k = q (q + 1) ... (q + k - 1), elementwise."""
    out = np.ones_like(q, dtype=float)
    for t in range(k):
        out = out * (q + t)
    return out


def moment_profile(spec: MixtureSpec) -> ProfileMoments:
    """Exact site means, covariance matrix and product variances of the stationary law.

    Site means are linear in position.  Off-diagonal covariances equal the
    covariances of the hidden profile (sites are independent given the
    profile); diagonals add the conditional geometric/exponential variance
    through the law of total variance.

    ``product_variance[x, y]`` is the variance of the centred pair product
    (v_x - mu_x)(v_y - mu_y), the series whose mean is a covariance.  Given
    the profile the sites are independent, and the site law's ``moments``
    make each conditional moment a polynomial of degree <= 4 in the profile.
    With m = lo + (hi - lo) u, the joint moments of uniform order statistics,
    E[U_(i)**a U_(j)**b] = (i)_a (j + a)_b / (n + 1)_{a + b} for i <= j,
    turn it into a finite sum: E[(v_x - mu_x)**4] - var_x**2 on the
    diagonal, and E[(v_x - mu_x)**2 (v_y - mu_y)**2] - cov_xy**2 off it.
    """
    lo, hi = spec.interval
    n = spec.params.n
    site = spec.model.site
    x = np.arange(1, n + 1, dtype=float)
    width = hi - lo
    means = lo + width * x / (n + 1)
    # Order-statistic second moments of uniforms on [lo, hi].
    var_beta = x * (n + 1 - x) / ((n + 1) ** 2 * (n + 2))
    e_m2 = means**2 + width**2 * var_beta
    xi = np.minimum.outer(x, x)
    yj = np.maximum.outer(x, x)
    cov = width**2 * xi * (n + 1 - yj) / ((n + 1) ** 2 * (n + 2))
    np.fill_diagonal(cov, site.moments[2][1] * means + site.moments[2][2] * e_m2 - means**2)
    # raw[k, i]: the coefficient of u**i in E[v**k | m = lo + width u].
    table = np.zeros((5, 5))
    for k, row in enumerate(site.moments):
        table[k, :len(row)] = row
    shift = np.array([[math.comb(j, i) * lo ** (j - i) * width**i if i <= j else 0.0
                       for i in range(5)] for j in range(5)])
    raw = table @ shift
    mu = means[:, np.newaxis]
    # Per site, the coefficients in u of E[(v_x - mu_x)**k | u] for k = 2 and 4.
    second, fourth = (sum(math.comb(k, i) * (-mu) ** (k - i) * raw[i] for i in range(k + 1))
                      for k in (2, 4))
    joint = sum(second[xi.astype(int) - 1, a] * second[yj.astype(int) - 1, b]
                * _rising(xi, a) * _rising(yj + a, b) / _rising(n + 1.0, a + b)
                for a in range(3) for b in range(3))
    np.fill_diagonal(joint, sum(fourth[:, a] * _rising(x, a) / _rising(n + 1.0, a)
                                for a in range(5)))
    return ProfileMoments(means=means, covariance=cov, product_variance=joint - cov**2)
