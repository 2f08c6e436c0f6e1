"""Numerical verification of the identities behind the stationary mixtures.

Four families of checks, in increasing strength:

* antiderivative identities tying each generating function to the log of
  itself (the cancellation engine of the telescoping argument);
* the Frullani integral, which converts the continuous model's jump-measure
  differences into those same logs;
* the telescoping identities: for every site x, the ordered-box integral of
  the discrete-Laplacian-in-m of log generating functions against the product
  kernel vanishes -- each x-term individually, not only their sum.  They
  follow the densities' rule, ``measure.uses_quadrature``: quadrature through
  n = 5, Monte Carlo only when the caller passes ``mc_samples`` (at least
  LEAST_MC_SAMPLES), which beyond n = 5 it must;
* direct balance-equation residuals of the particle chain on a box, at any
  n whose candidate table fits ``measure.MAX_TABLE_ENTRIES``, certified
  against both the geometric tails of the truncated sums and the table's
  own error;

and the equilibrium limit, where the mixture collapses to the product law.

The first and third families take the model as an argument: both site laws
share the generating function 1 / (1 + c(s) m), and ``measure.Model`` supplies
c(s) and the arguments s where it holds, so one check serves both chains.
Each identity and each telescoping quadrature report is one integrator call.
Every check hands its residuals, tolerances, method and notes to one builder,
``_report``, which is also the one place a failed integral is handled: a
QuadratureError ends the check inconclusive, never failed and never raised.
Deliberately wrong candidate measures (products matching the true marginals
or their means) are supported everywhere so the checks' rejection power is
itself testable.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ChainParams,
    QuadratureError,
    harmonic_number,
    harmonic_prefix,
    make_rng,
    ordered_simplex_integral,
    quadrature_1d,
)
from .measure import (
    MARGINAL_TOL,
    MAX_TABLE_ENTRIES,
    MixtureSpec,
    Model,
    geometric_pmf,
    marginal_pmf_discrete,
    mixture_density_continuous,
    mixture_density_discrete,
    moment_profile,
    profile_monte_carlo,
    sample_ordered_profile,
    uses_quadrature,
)

__all__ = [
    "VerificationReport",
    "check_antiderivative",
    "check_frullani",
    "check_telescoping",
    "check_stationarity_direct_discrete",
    "check_equilibrium_limit",
    "identity_suite",
    "telescoping_suite",
    "stationarity_suite",
    "equilibrium_suite",
    "run_suite",
    "SUITES",
]


@dataclass
class VerificationReport:
    """Outcome of one identity check: named residuals against tolerances."""

    name: str
    params: dict
    residuals: dict[str, float]
    tolerances: dict[str, float]
    method: str = ""
    notes: dict = field(default_factory=dict)
    inconclusive: bool = False

    @property
    def passed(self) -> bool:
        return not self.inconclusive and all(
            abs(v) <= self.tolerances[k] for k, v in self.residuals.items())

    @property
    def max_residual(self) -> float:
        return max((abs(v) for v in self.residuals.values()), default=0.0)

    def to_json(self) -> str:
        return json.dumps({**dataclasses.asdict(self), "passed": self.passed}, sort_keys=True)


def _report(name: str, params: dict, compute) -> VerificationReport:
    """The report of one check: ``compute()`` returns its residuals,
    tolerances, method and notes.  A QuadratureError raised inside makes the
    report inconclusive, carrying the integral's error estimate and message."""
    try:
        found = compute()
    except QuadratureError as exc:
        return VerificationReport(name, params, residuals={"quadrature_error": exc.error},
                                  tolerances={"quadrature_error": 0.0}, method="quadrature",
                                  notes={"failure": str(exc)}, inconclusive=True)
    return VerificationReport(name, params, *found)


# ---------------------------------------------------------------------------
# Antiderivative identities and the Frullani integral
# ---------------------------------------------------------------------------

def check_antiderivative(
    model: Model, m: float, s: float, tol: float = 1e-10
) -> VerificationReport:
    """Integral of the site generating function 1 / (1 + c(s) u) over the mean
    u in [0, m] against its closed form log(1 + c(s) m) / c(s).

    ``s`` is ``lam`` or ``t`` (see :class:`drivenchain.measure.Model`); one
    outside the generating function's domain at m, or the removable point
    c(s) = 0 (lam = 1, t = 0), is a ValueError.
    """
    if m <= 0.0:
        raise ValueError("need m > 0")
    model.validate_mgf_arguments(s, m)
    c = model.mgf_coefficient(s)
    if c == 0.0:
        raise ValueError(f"{model.argument} = {s} is the removable point c = 0; "
                         "check nearby values instead")

    def compute():
        quad = quadrature_1d(lambda u: 1.0 / (1.0 + c * u), 0.0, m, tol * 1e-2)
        closed = math.log(1.0 / (1.0 + c * m)) / -c
        return ({"residual": quad.value - closed}, {"residual": tol}, "quadrature",
                {"quad_error": quad.error, "degree": quad.intervals})

    return _report(f"antiderivative_{model.value}", {"m": m, model.argument: s}, compute)


def check_frullani(a: float, b: float, tol: float = 1e-9) -> VerificationReport:
    """Integral of (e^{-ax} - e^{-bx})/x over (0, inf) against log(b/a).

    One quadrature over [0, cut], the integrand taking its removable value
    b - a at x = 0; the tail is cut where an analytic envelope drops below
    tol/10.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("need a, b > 0")
    mn = min(a, b)
    cut = 1e-4
    while math.exp(-mn * cut) / (mn * cut) > tol / 10.0:
        cut *= 2.0
    f = lambda x: np.divide(np.exp(-a * x) - np.exp(-b * x), x, out=np.full_like(x, b - a),
                            where=x > 0.0)

    def compute():
        quad = quadrature_1d(f, 0.0, cut, tol * 1e-2)
        return ({"residual": quad.value - math.log(b / a)}, {"residual": tol}, "quadrature",
                {"tail_cut": cut, "tail_bound": math.exp(-mn * cut) / (mn * cut),
                 "quad_error": quad.error})

    return _report("frullani", {"a": a, "b": b}, compute)


# ---------------------------------------------------------------------------
# Telescoping identities over the ordered box
# ---------------------------------------------------------------------------

def _log_mgf(model: Model, m: np.ndarray, s) -> np.ndarray:
    return -np.log1p(model.mgf_coefficient(s) * m)


def _mgf(model: Model, m: np.ndarray, s) -> np.ndarray:
    return 1.0 / (1.0 + model.mgf_coefficient(s) * m)


# Site x's bracket, the discrete Laplacian of L_x = log(generating function
# at s_x) in the profile: its entry k reads coordinate x - 1 + k with weight
# LAPLACIAN[k], where coordinates -1 and n are the pinned edges m_0 = lo and
# m_{n+1} = hi.  Quadrature and Monte Carlo both read this one layout.
LAPLACIAN = (1.0, -2.0, 1.0)


def _bracket_reads(n: int) -> np.ndarray:
    """The coordinate x - 1 + k that entry (x, k) of site x's bracket reads, (n, 3)."""
    return np.arange(n)[:, np.newaxis] + np.arange(-1, 2)


def _telescoping_quadrature(
    model: Model, lo: float, hi: float, svec: np.ndarray, tol: float
) -> tuple[dict[str, float], dict[str, float], dict]:
    """Every bracket entry of one argument vector in one ordered-box integral:
    entry (x, k) multiplies the factor at the coordinate it reads by
    LAPLACIAN[k] L_x, or at a pinned edge factor x by LAPLACIAN[k] L_x(edge)."""
    n = len(svec)
    reads = _bracket_reads(n)[..., np.newaxis]  # (n, 3, 1): broadcast over the nodes
    pinned = (reads < 0) | (reads >= n)
    at = np.where(pinned, np.arange(n)[:, np.newaxis, np.newaxis], reads)
    edge = np.where(reads < 0, lo, hi)
    weight = np.array(LAPLACIAN)[:, np.newaxis]
    s = svec[:, np.newaxis, np.newaxis]

    def factor(y, m):
        weighted = weight * _log_mgf(model, np.where(pinned, edge, m), s)
        return _mgf(model, m, svec[y]) * np.where(at == y, weighted, 1.0)

    values, error = ordered_simplex_integral(
        [functools.partial(factor, y) for y in range(n)], lo, hi, tol=tol * 1e-2)
    residuals = {f"term_{x + 1}": float(v) for x, v in enumerate(values.sum(axis=1))}
    residuals["total"] = sum(residuals.values())
    return residuals, {k: tol for k in residuals}, {"quad_error": error}


def _impostor_profile(spec: MixtureSpec, rng, b: int) -> np.ndarray:
    """b profiles with the right per-site order-statistic marginals but
    independent sites: the product-of-marginals impostor in profile space."""
    (lo, hi), n = spec.interval, spec.params.n
    return np.column_stack([lo + (hi - lo) * rng.beta(x + 1, n - x, size=b) for x in range(n)])


# Least profile count of a Monte Carlo telescoping verdict: at n = 5 the 4-SE rule
# fails a true identity in 58-61% of reports at 2 draws, 1.7% at 10, never at 1000.
LEAST_MC_SAMPLES = 1000


def _telescoping_mc(
    spec: MixtureSpec,
    svecs: np.ndarray,
    mc_samples: int,
    seed: int,
    profile_law: str,
) -> list[tuple[dict[str, float], dict[str, float], dict]]:
    """Monte Carlo (residuals, tolerances, notes) of every argument vector (row)
    of ``svecs``, from one draw of each batch of profiles for all rows.  Each
    term is judged at four of its standard errors, and the total at four of
    the per-profile total's: the terms of one profile are not independent."""
    model = spec.model
    lo, hi = spec.interval
    n = svecs.shape[1]
    draw = functools.partial(
        sample_ordered_profile if profile_law == "ordered" else _impostor_profile, spec)
    reads = _bracket_reads(n) + 1  # rows of the padded profiles below

    def weigh(m):
        # Profiles as columns, edges as rows 0 and n + 1; per row, n terms and their total.
        padded = np.vstack([np.full(len(m), lo), m.T, np.full(len(m), hi)])
        for svec in svecs:
            s = svec[:, np.newaxis]
            brackets = sum(w * _log_mgf(model, padded[reads[:, k]], s)
                           for k, w in enumerate(LAPLACIAN))
            terms = brackets * np.prod(_mgf(model, padded[1:-1], s), axis=0)
            yield from terms
            yield terms.sum(axis=0)

    means, sds = profile_monte_carlo(draw, weigh, mc_samples, seed)
    volume = (hi - lo) ** n / math.factorial(n)
    out = []
    for row, row_sds in zip(means.reshape(-1, n + 1), sds.reshape(-1, n + 1)):
        residuals = {f"term_{x + 1}": volume * row[x] for x in range(n)}
        residuals["total"] = volume * row[:n].sum()
        tolerances = {f"term_{x + 1}": 4.0 * volume * row_sds[x] for x in range(n)}
        tolerances["total"] = 4.0 * volume * row_sds[n]
        notes = {"samples": mc_samples, "seed": seed, "profile_law": profile_law}
        out.append((residuals, tolerances, notes))
    return out


def check_telescoping(
    spec: MixtureSpec,
    svecs,
    tol: float = 1e-8,
    mc_samples: int | None = None,
    seed: int = 7,
    profile_law: str = "ordered",
) -> list[VerificationReport]:
    """Every site's Laplacian-in-m term integrates to zero over the ordered box.

    One report per argument vector (row) of ``svecs``, a (V, n) array of
    ``lam`` or ``t`` values by ``spec.model``, all inside the generating
    function's domain at the interval's top.  The densities' rule
    (:func:`drivenchain.measure.uses_quadrature`) picks the method:
    quadrature when ``mc_samples`` is None and n <=
    ``measure.QUADRATURE_MAX_SITES``, else Monte Carlo.  The quadrature path
    integrates the 3n bracket entries of a row in one ordered-box call
    (:func:`drivenchain.core.ordered_simplex_integral`), judges every term at
    ``tol`` and records the call's error estimate in ``notes["quad_error"]``.
    Monte Carlo draws exactly ``mc_samples`` profiles from ``seed``, once for
    all rows, judges at four standard errors (not ``tol``) and records its
    seed; each row's report is bit for bit the one a call with that row alone
    gives.  A Monte Carlo call without ``mc_samples``, or with fewer than
    LEAST_MC_SAMPLES, is a ValueError.
    ``profile_law='independent-marginals'`` swaps in the impostor profile with
    the right marginals but no ordering, always by Monte Carlo; the residuals
    must then be far from zero, which is how the check's power is audited.
    """
    model = spec.model
    n = spec.params.n
    svecs = np.asarray(svecs, dtype=float)
    if svecs.ndim != 2 or svecs.shape[1] != n:
        raise ValueError(f"argument vectors must form a (V, {n}) array, got shape {svecs.shape}")
    if profile_law not in ("ordered", "independent-marginals"):
        raise ValueError(f"unknown profile_law {profile_law!r}")
    lo, hi = spec.interval
    model.validate_mgf_arguments(svecs, hi)
    method = ("quadrature" if profile_law == "ordered" and uses_quadrature(n, mc_samples)
              else "monte-carlo")
    if method == "monte-carlo":
        if mc_samples is None or mc_samples < LEAST_MC_SAMPLES:
            raise ValueError(f"telescoping at n={n} by Monte Carlo ({profile_law} profiles) "
                             f"needs mc_samples >= {LEAST_MC_SAMPLES}, got {mc_samples}")
        results = _telescoping_mc(spec, svecs, mc_samples, seed, profile_law)

    def compute(i):
        residuals, tolerances, notes = (results[i] if method == "monte-carlo" else
                                        _telescoping_quadrature(model, lo, hi, svecs[i], tol))
        return residuals, tolerances, method, notes

    return [_report(f"telescoping_{model.value}",
                    {"n": n, "lo": lo, "hi": hi, "svec": svec.tolist()},
                    functools.partial(compute, i))
            for i, svec in enumerate(svecs)]


# ---------------------------------------------------------------------------
# Direct balance-equation residuals (particle chain)
# ---------------------------------------------------------------------------

# Default (truncation, tol) of the direct check by n; larger n take the last.
DIRECT_DEFAULTS = {1: (200, 1e-8), 2: (60, 1e-6)}


def _tail_k(q: float, budget: float, n_sums: int) -> int | None:
    """Smallest truncation level whose geometric tail certificate meets budget.

    Each truncated sum has tail <= q^{k+1} / ((k+1)(1-q)); ``n_sums`` of them
    share the budget.
    """
    for k in range(1, 100_000):
        if n_sums * q ** (k + 1) / ((k + 1) * (1.0 - q)) <= budget:
            return k
    return None


def _candidate_table(spec: MixtureSpec, extent: int, candidate: str,
                     density_tol: float) -> tuple[np.ndarray, float]:
    """The candidate law on {0..extent}^n, as an n-dimensional table, and a
    bound on the error of any one entry."""
    n = spec.params.n
    ks = np.arange(extent + 1)
    if candidate == "mixture":
        table = mixture_density_discrete(spec, np.tile(ks, (n, 1)), tol=density_tol)
        return table.value, table.error
    if candidate == "product-geometric":
        pmfs, error = [geometric_pmf(m, ks) for m in moment_profile(spec).means], 0.0
    elif candidate == "product-marginals" and n > 1:  # at n = 1 it is the mixture
        pmfs = [marginal_pmf_discrete(spec, x, ks) for x in range(1, n + 1)]
        error = n * MARGINAL_TOL  # n factors, each in [0, 1]
    else:
        raise ValueError(f"unknown candidate {candidate!r} for n={n}")
    return functools.reduce(np.multiply.outer, pmfs), error


def _balance_residuals(mu: np.ndarray, box: int, k_sum: int, params: ChainParams) -> np.ndarray:
    """Outflow minus inflow of the table ``mu`` at every state of {0..box}^n.

    The adjoint generator is a sum of shifted slices of ``mu``, one per
    channel and batch size k, each the rate times mu at the pre-jump state
    eta + shift where it exists: injection at site 1 or n (rate beta^k / k),
    bulk moves (1/k) and removal at site 1 or n (1/k, k <= k_sum).
    """
    n = mu.ndim
    e = np.eye(n, dtype=int)
    inflow = np.zeros((box + 1,) * n)

    def add(rate: float, shift: np.ndarray) -> None:
        target = tuple(slice(max(0, -d), box + 1) for d in shift)
        inflow[target] += rate * mu[tuple(slice(max(0, d), box + 1 + d) for d in shift)]

    for k in range(1, box + 1):
        add(params.beta_a**k / k, -k * e[0])
        add(params.beta_b**k / k, -k * e[-1])
        for x in range(n - 1):
            add(1.0 / k, k * (e[x] - e[x + 1]))  # site x moved k to site x + 1
            add(1.0 / k, k * (e[x + 1] - e[x]))  # and back
    for k in range(1, k_sum + 1):
        add(1.0 / k, k * e[0])
        add(1.0 / k, k * e[-1])
    exit_rate = -math.log1p(-params.beta_a) - math.log1p(-params.beta_b)
    for harmonic in np.ix_(*[harmonic_prefix(box)[: box + 1]] * n):
        exit_rate = exit_rate + 2.0 * harmonic
    return mu[(slice(box + 1),) * n] * exit_rate - inflow


def check_stationarity_direct_discrete(
    params: ChainParams,
    truncation: int | None = None,
    tol: float | None = None,
    candidate: str = "mixture",
) -> VerificationReport:
    """Balance-equation residuals of a candidate stationary law on a box.

    For every eta in {0..truncation}^n, compares probability outflow
    mu(eta) * (total exit rate) with the inflow from every channel's pre-jump
    state, read off one table of the candidate on {0..extent}^n, where
    extent = truncation + max(k_sum, truncation) (+ k_sum alone at n = 1):
    bulk moves reach eta_x + truncation.  A table above MAX_TABLE_ENTRIES,
    or a negative truncation, is a ValueError.  Only the two boundary-removal
    sums are infinite; both are cut at k_sum, where their geometric tail
    certificate meets tol/10.  It holds at any n: each candidate mixes product
    geometrics with means <= rho_b, so mu(eta + k e_x) <= q^k, q = rho_b /
    (1 + rho_b).  The rates that multiply one table entry sum to at most
    R = 2 inj + (4n - 2) H(truncation) + 2 H(k_sum), inj = -log(1 - beta_a)
    - log(1 - beta_b); the table is asked for at tol/(10 R), and the verdict
    is on raw residual + table error * R + tail bound.  An unattainable
    certificate yields an inconclusive report, not a failure.  ``candidate``
    picks the measure under test: the exact mixture, or wrong products used
    to audit the check's power.  A ``truncation`` or ``tol`` left None takes
    DIRECT_DEFAULTS' entry for n (the last for larger n).
    """
    n = params.n
    defaults = DIRECT_DEFAULTS[min(n, max(DIRECT_DEFAULTS))]
    truncation, tol = [d if v is None else v for v, d in zip((truncation, tol), defaults)]
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    spec = MixtureSpec(params, Model.DISCRETE)
    rho_b = params.rho_b
    q = rho_b / (1.0 + rho_b)
    k_sum = _tail_k(q, tol / 10.0, n_sums=2)
    meta = {"truncation": truncation, "candidate": candidate}
    if k_sum is None:
        return VerificationReport(
            "stationarity_direct_discrete", meta, residuals={"tail_bound": float("inf")},
            tolerances={"tail_bound": tol / 10.0}, method="table",
            notes={"failure": "no truncation level meets the tail budget"}, inconclusive=True)
    tail_bound = 2.0 * q ** (k_sum + 1) / ((k_sum + 1) * (1.0 - q))
    inj = -math.log1p(-params.beta_a) - math.log1p(-params.beta_b)
    rate_bound = (2.0 * inj + (4 * n - 2) * harmonic_number(truncation)
                  + 2.0 * harmonic_number(k_sum))
    meta["density_tol"] = density_tol = tol / (10.0 * rate_bound)
    extent = truncation + max(k_sum, truncation if n > 1 else 0)
    if (extent + 1) ** n > MAX_TABLE_ENTRIES:
        raise ValueError(f"direct balance check at n={n}, truncation {truncation} needs "
                         f"a {extent + 1}^{n} table, above MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}")

    def compute():
        mu, table_error = _candidate_table(spec, extent, candidate, density_tol)
        raw = float(np.abs(_balance_residuals(mu, truncation, k_sum, params)).max())
        return ({"max_residual": raw + table_error * rate_bound + tail_bound},
                {"max_residual": tol}, "table",
                {"k_sum": k_sum, "tail_bound": tail_bound, "extent": extent, "n": n,
                 "beta_a": params.beta_a, "beta_b": params.beta_b, "raw": raw,
                 "table_error": table_error, "rate_bound": rate_bound})

    return _report("stationarity_direct_discrete", meta, compute)


# ---------------------------------------------------------------------------
# Equilibrium degeneration
# ---------------------------------------------------------------------------

def check_equilibrium_limit(
    params: ChainParams,
    model: Model,
    tol: float = 1e-12,
    relative: bool = False,
) -> VerificationReport:
    """Mixture density against the plain product law on a grid of small
    configurations: site values {0, 1, 2}, or {0, .5, 1.5, 2, 2.5} for energies.

    When the boundary parameters coincide the mixture is the product law, and
    the integrated table must match it to round-off; with a tiny gap the
    mixture must still track the product law at the midpoint mean, which is
    checked in relative terms (pass ``relative=True``).  ``method`` is the
    density's; a table the integrator cannot certify to min(tol/100, 1e-12)
    makes the report inconclusive.
    """
    spec = MixtureSpec(params, model)
    lo, hi = spec.interval
    n = params.n
    values, density = ((np.arange(3), mixture_density_discrete) if spec.model is Model.DISCRETE else
                       (np.array([0.0, 0.5, 1.5, 2.0, 2.5]), mixture_density_continuous))
    law = spec.model.site.law

    def compute():
        mix = density(spec, np.tile(values, (n, 1)), tol=min(tol * 1e-2, 1e-12))
        prod = functools.reduce(np.multiply.outer, [law(0.5 * (lo + hi), values)] * n)
        diff = np.abs(mix.value - prod)
        worst = float(np.max(diff / prod if relative else diff))
        return {"max_residual": worst}, {"max_residual": tol}, mix.method, {}

    return _report("equilibrium_limit",
                   {"n": n, "lo": lo, "hi": hi, "model": spec.model.value, "relative": relative},
                   compute)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

LAMBDA_GRID = tuple(np.round(np.arange(0.1, 1.0, 0.1), 10))


def t_grid(t_b: float) -> tuple[float, ...]:
    return (-1.0, -0.3, 0.1, 0.3, 0.6 / t_b)


def default_svec_grid(n: int, model: Model, hi: float) -> list[np.ndarray]:
    """Constant, alternating, and seeded-random argument vectors.

    The identities hold for every admissible argument vector; a handful of
    deterministic representatives plus seeded random points stand in for the
    continuum.
    """
    rng = make_rng(123)
    if model is Model.DISCRETE:
        consts = [0.1, 0.5, 0.9]
        alt = [0.3 if x % 2 == 0 else 0.7 for x in range(n)]
        rand = [rng.uniform(0.05, 0.95, size=n) for _ in range(2)]
    else:
        consts = [-1.0, 0.1, 0.6 / hi]
        alt = [-0.5 if x % 2 == 0 else 0.3 / hi for x in range(n)]
        rand = [rng.uniform(-1.0, 0.9 / hi, size=n) for _ in range(2)]
    return [np.full(n, c) for c in consts] + [np.array(alt)] + rand


# identity_suite's tolerances: on the default grids, at lam = 1 +- 1e-6 and
# t = +-1e-6 beside the removable point c(s) = 0, and for Frullani.
ANTIDERIVATIVE_TOL = 1e-10
ANTIDERIVATIVE_LIMIT_TOL = 1e-4
FRULLANI_TOL = 1e-9


def identity_suite() -> list[VerificationReport]:
    """Antiderivative identities across the default grids, plus Frullani."""
    reports = []
    for m in (0.5, 1.0, 2.0, 3.0):
        for model, grid, near in ((Model.DISCRETE, LAMBDA_GRID, (1.0 - 1e-6, 1.0 + 1e-6)),
                                  (Model.CONTINUOUS, t_grid(m), (-1e-6, 1e-6))):
            for s in grid:
                reports.append(check_antiderivative(model, m, float(s), ANTIDERIVATIVE_TOL))
            for s in near:
                reports.append(check_antiderivative(model, m, s, ANTIDERIVATIVE_LIMIT_TOL))
    for a, b in ((1.0, 2.0), (0.5, 3.0), (2.0, 2.0)):
        reports.append(check_frullani(a, b, FRULLANI_TOL))
    return reports


def telescoping_suite(
    sizes: tuple[int, ...] = (1, 2, 3, 5),
    tol: float = 1e-8,
    mc_samples: int | None = None,
    seed: int = 7,
) -> list[VerificationReport]:
    """Telescoping residuals for both models across chain sizes.

    Each model's whole argument grid goes to one :func:`check_telescoping`
    call, so a Monte Carlo size draws its profile sample once per model
    rather than once per vector.  Sizes up to ``measure.QUADRATURE_MAX_SITES``
    run by quadrature; ``mc_samples`` goes only to the sizes above it.
    """
    reports = []
    for n in sizes:
        p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
        for model in Model:
            spec = MixtureSpec(p, model)
            grid = default_svec_grid(n, model, spec.interval[1])
            draws = None if uses_quadrature(n, None) else mc_samples
            reports.extend(check_telescoping(spec, grid, tol, mc_samples=draws, seed=seed))
    return reports


def stationarity_suite() -> list[VerificationReport]:
    """Direct balance residuals at each n of DIRECT_DEFAULTS, with its truncation and tol."""
    return [check_stationarity_direct_discrete(ChainParams(n=n, beta_a=0.5, beta_b=0.75))
            for n in DIRECT_DEFAULTS]


def equilibrium_suite(tol: float = 1e-12) -> list[VerificationReport]:
    """Both chains at n = 2, 3 on a degenerate interval: rho = 2 for particles, T = 1.5."""
    return [check_equilibrium_limit(
                ChainParams(n=n, beta_a=2.0 / 3.0, beta_b=2.0 / 3.0, t_a=1.5, t_b=1.5), model, tol)
            for n in (2, 3) for model in Model]


SUITES = {
    "identities": identity_suite,
    "telescoping": telescoping_suite,
    "stationarity": stationarity_suite,
    "equilibrium": equilibrium_suite,
}


def run_suite(name: str, **kwargs) -> list[VerificationReport]:
    if name == "all":
        if kwargs:
            raise ValueError(f"suite 'all' takes no options, got {sorted(kwargs)}")
        return [r for fn in SUITES.values() for r in fn()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**kwargs)
