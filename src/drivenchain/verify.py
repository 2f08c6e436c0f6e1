"""Numerical verification of the identities behind the stationary mixtures.

Four families of checks, in increasing strength:

* antiderivative identities tying each generating function to the log of
  itself (the cancellation engine of the telescoping argument);
* the Frullani integral, which converts the continuous model's jump-measure
  differences into those same logs;
* the telescoping identities: for every site x, the ordered-box integral of
  the discrete-Laplacian-in-m of log generating functions against the product
  kernel vanishes -- each x-term individually, not only their sum;
* direct balance-equation residuals of the particle chain on a box, at any
  n whose candidate table fits MAX_TABLE_ENTRIES, with both infinite sums
  truncated under an explicit geometric tail certificate.

Checks report residuals, tolerances, and method notes; deliberately wrong
candidate measures (products matching the true marginals or their means) are
supported everywhere so the checks' rejection power is itself testable.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ChainParams,
    QuadratureError,
    harmonic_prefix,
    make_rng,
    ordered_simplex_integral,
    quadrature_1d,
)
from .measure import (
    MixtureSpec,
    Model,
    geometric_pmf,
    exponential_pdf,
    marginal_pmf_discrete,
    mgf_exponential,
    mgf_geometric,
    mixture_density_continuous,
    mixture_density_discrete,
    moment_profile,
)

__all__ = [
    "VerificationReport",
    "check_antiderivative_discrete",
    "check_antiderivative_continuous",
    "check_frullani",
    "check_telescoping_discrete",
    "check_telescoping_continuous",
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
        if self.inconclusive:
            return False
        return all(
            abs(v) <= self.tolerances[k] for k, v in self.residuals.items()
        )

    @property
    def max_residual(self) -> float:
        return max((abs(v) for v in self.residuals.values()), default=0.0)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "params": self.params,
                "residuals": self.residuals,
                "tolerances": self.tolerances,
                "method": self.method,
                "notes": self.notes,
                "inconclusive": self.inconclusive,
                "passed": self.passed,
            },
            sort_keys=True,
        )


def _report_quad_failure(name: str, params: dict, exc: QuadratureError) -> VerificationReport:
    return VerificationReport(
        name=name,
        params=params,
        residuals={"quadrature_error": exc.error},
        tolerances={"quadrature_error": 0.0},
        method="quadrature",
        notes={"failure": str(exc)},
        inconclusive=True,
    )


# ---------------------------------------------------------------------------
# Antiderivative identities and the Frullani integral
# ---------------------------------------------------------------------------

def check_antiderivative_discrete(
    m: float, lam: float, tol: float = 1e-10
) -> VerificationReport:
    """Integral of the geometric MGF in its mean vs log(MGF)/(lam - 1)."""
    if m <= 0.0:
        raise ValueError("need m > 0")
    if lam == 1.0:
        raise ValueError("lam = 1 is the removable point; check nearby values instead")
    params = {"m": m, "lam": lam}
    try:
        quad = quadrature_1d(lambda u: 1.0 / (1.0 + (1.0 - lam) * u), 0.0, m, tol * 1e-2)
    except QuadratureError as exc:
        return _report_quad_failure("antiderivative_discrete", params, exc)
    closed = math.log(mgf_geometric(m, lam)) / (lam - 1.0)
    return VerificationReport(
        name="antiderivative_discrete",
        params=params,
        residuals={"residual": quad.value - closed},
        tolerances={"residual": tol},
        method="quadrature",
        notes={"quad_error": quad.error, "degree": quad.intervals},
    )


def check_antiderivative_continuous(
    m: float, t: float, tol: float = 1e-10
) -> VerificationReport:
    """Integral of the exponential MGF in its mean vs log(MGF)/t."""
    if m <= 0.0:
        raise ValueError("need m > 0")
    if t == 0.0:
        raise ValueError("t = 0 is the removable point; check nearby values instead")
    if t >= 1.0 / m:
        raise ValueError(f"t={t} not below 1/m for m={m}")
    params = {"m": m, "t": t}
    try:
        quad = quadrature_1d(lambda u: 1.0 / (1.0 - t * u), 0.0, m, tol * 1e-2)
    except QuadratureError as exc:
        return _report_quad_failure("antiderivative_continuous", params, exc)
    closed = math.log(mgf_exponential(m, t)) / t
    return VerificationReport(
        name="antiderivative_continuous",
        params=params,
        residuals={"residual": quad.value - closed},
        tolerances={"residual": tol},
        method="quadrature",
        notes={"quad_error": quad.error, "degree": quad.intervals},
    )


def check_frullani(a: float, b: float, tol: float = 1e-9) -> VerificationReport:
    """Integral of (e^{-ax} - e^{-bx})/x over (0, inf) against log(b/a).

    The removable singularity is integrated by series below 1e-4 and the tail
    is cut where an analytic envelope drops below tol/10.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("need a, b > 0")
    params = {"a": a, "b": b}
    if a == b:
        return VerificationReport(
            name="frullani",
            params=params,
            residuals={"residual": 0.0},
            tolerances={"residual": tol},
            method="exact",
            notes={"note": "integrand identically zero"},
        )
    delta = 1e-4
    # Term-by-term integral of the Taylor series on [0, delta].
    head = 0.0
    fact = 1.0
    for k in range(1, 12):
        fact *= k
        head += (-1.0) ** (k + 1) * (b**k - a**k) * delta**k / (k * fact)
    mn = min(a, b)
    cut = delta
    while math.exp(-mn * cut) / (mn * cut) > tol / 10.0:
        cut *= 2.0
    f = lambda x: (np.exp(-a * x) - np.exp(-b * x)) / x
    try:
        quad = quadrature_1d(f, delta, cut, tol * 1e-2)
    except QuadratureError as exc:
        return _report_quad_failure("frullani", params, exc)
    value = head + quad.value
    return VerificationReport(
        name="frullani",
        params=params,
        residuals={"residual": value - math.log(b / a)},
        tolerances={"residual": tol},
        method="series+quadrature",
        notes={"tail_cut": cut, "tail_bound": math.exp(-mn * cut) / (mn * cut),
               "quad_error": quad.error},
    )


# ---------------------------------------------------------------------------
# Telescoping identities over the ordered box
# ---------------------------------------------------------------------------

def _log_mgf(model: Model, m: np.ndarray, s: float) -> np.ndarray:
    if model is Model.DISCRETE:
        return -np.log1p((1.0 - s) * m)
    return -np.log1p(-s * m)


def _mgf(model: Model, m: np.ndarray, s: float) -> np.ndarray:
    if model is Model.DISCRETE:
        return 1.0 / (1.0 + (1.0 - s) * m)
    return 1.0 / (1.0 - s * m)


def _validate_arguments(model: Model, lo: float, hi: float, svec: np.ndarray) -> None:
    if model is Model.DISCRETE:
        bound = (1.0 + hi) / hi
        if np.any(svec < 0.0) or np.any(svec >= bound):
            raise ValueError(f"lambda values must lie in [0, {bound})")
    else:
        if np.any(svec >= 1.0 / hi):
            raise ValueError(f"t values must lie below {1.0 / hi}")


def _bracket(
    model: Model, mvecs: np.ndarray, x: int, svec: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Discrete Laplacian in the profile at site x (boundaries pinned to lo/hi)."""
    n = mvecs.shape[1]
    sx = float(svec[x])
    left = _log_mgf(model, lo if x == 0 else mvecs[:, x - 1], sx)
    right = _log_mgf(model, hi if x == n - 1 else mvecs[:, x + 1], sx)
    return left - 2.0 * _log_mgf(model, mvecs[:, x], sx) + right


def _telescoping_quadrature(
    model: Model, lo: float, hi: float, svec: np.ndarray, tol: float
) -> tuple[dict[str, float], dict]:
    n = len(svec)
    factors = [(lambda m, s=float(s): _mgf(model, m, s)) for s in svec]
    residuals, errors = {}, {}
    for x in range(n):
        # One product integral per bracket entry L_x(m_y): it multiplies factor
        # y, or factor x as the constant L_x(edge) at a pinned edge m_0 / m_{n+1}.
        terms = []
        for y, weight in ((x - 1, 1.0), (x, -2.0), (x + 1, 1.0)):
            at, edge = (y, None) if 0 <= y < n else (x, lo if y < 0 else hi)

            def weighted(m, at=at, edge=edge, weight=weight, s=float(svec[x])):
                return weight * _log_mgf(model, m if edge is None else edge, s) * factors[at](m)

            terms.append(ordered_simplex_integral(
                factors[:at] + [weighted] + factors[at + 1:], lo, hi, tol=tol * 1e-2))
        residuals[f"term_{x + 1}"] = sum(v for v, _ in terms)
        errors[f"term_{x + 1}"] = sum(e for _, e in terms)
    residuals["total"] = sum(residuals.values())
    return residuals, {"quad_error": errors}


# Profiles drawn per Monte Carlo batch: bounds the (batch, n) profile array.
MC_BATCH = 1 << 19


def _telescoping_mc(
    model: Model,
    lo: float,
    hi: float,
    svecs: np.ndarray,
    mc_samples: int,
    seed: int,
    profile_law: str,
) -> list[tuple[dict[str, float], dict[str, float], dict]]:
    """Monte Carlo residuals of every argument vector (row) of ``svecs``.

    Each batch of profiles is drawn once and weighted for every vector in
    turn, so each vector sees the batches, in order, that a call of its own
    with the same seed would draw: its residuals are those of that call, bit
    for bit.  Returns one (residuals, tolerances, notes) triple per row.
    """
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    if profile_law not in ("ordered", "independent-marginals"):
        raise ValueError(f"unknown profile_law {profile_law!r}")
    n = svecs.shape[1]
    rng = make_rng(seed)
    volume = (hi - lo) ** n / math.factorial(n)
    sums = np.zeros(svecs.shape)
    sums_sq = np.zeros(svecs.shape)
    drawn = 0
    batch = min(mc_samples, MC_BATCH)
    while drawn < mc_samples:
        b = min(batch, mc_samples - drawn)
        if profile_law == "ordered":
            m = rng.uniform(lo, hi, size=(b, n))
            m.sort(axis=-1)
        else:
            # Correct per-site order-statistic marginals, ordering destroyed:
            # the product-of-marginals impostor in profile space.
            m = np.empty((b, n))
            for x in range(n):
                m[:, x] = lo + (hi - lo) * rng.beta(x + 1, n - x, size=b)
        for svec, row, row_sq in zip(svecs, sums, sums_sq):
            weight = np.prod(
                [_mgf(model, m[:, x], float(svec[x])) for x in range(n)], axis=0
            )
            for x in range(n):
                g = _bracket(model, m, x, svec, lo, hi) * weight
                row[x] += g.sum()
                row_sq[x] += (g * g).sum()
        drawn += b
    out = []
    for row, row_sq in zip(sums, sums_sq):
        means = row / drawn
        sds = np.sqrt(np.maximum(row_sq / drawn - means**2, 0.0) / drawn)
        residuals = {f"term_{x + 1}": volume * means[x] for x in range(n)}
        residuals["total"] = volume * means.sum()
        tolerances = {f"term_{x + 1}": 4.0 * volume * sds[x] for x in range(n)}
        tolerances["total"] = 4.0 * volume * math.sqrt(float((sds**2).sum()))
        notes = {"samples": drawn, "seed": seed, "profile_law": profile_law}
        out.append((residuals, tolerances, notes))
    return out


def _check_telescoping(
    model: Model,
    params: ChainParams,
    svecs,
    tol: float,
    method: str | None,
    mc_samples: int,
    seed: int,
    profile_law: str,
) -> list[VerificationReport]:
    """One report per argument vector (row) of ``svecs``, all of one length n."""
    svecs = np.asarray(svecs, dtype=float)
    name = f"telescoping_{model.value}"
    lo, hi = MixtureSpec(params, model).interval
    n = svecs.shape[1]
    _validate_arguments(model, lo, hi, svecs)
    if method is None:
        method = "quadrature" if n <= 3 and profile_law == "ordered" else "monte-carlo"
    if method == "monte-carlo":
        results = _telescoping_mc(model, lo, hi, svecs, mc_samples, seed, profile_law)
    elif method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    elif profile_law != "ordered":
        raise ValueError("quadrature path only integrates the ordered profile law")
    reports = []
    for i, svec in enumerate(svecs):
        meta = {"n": n, "lo": lo, "hi": hi, "svec": svec.tolist()}
        if method == "quadrature":
            try:
                residuals, notes = _telescoping_quadrature(model, lo, hi, svec, tol)
            except QuadratureError as exc:
                reports.append(_report_quad_failure(name, meta, exc))
                continue
            tolerances = {k: tol for k in residuals}
        else:
            residuals, tolerances, notes = results[i]
        reports.append(VerificationReport(
            name=name,
            params=meta,
            residuals=residuals,
            tolerances=tolerances,
            method=method,
            notes=notes,
        ))
    return reports


def check_telescoping_discrete(
    params: ChainParams,
    lambda_vec,
    tol: float = 1e-8,
    method: str | None = None,
    mc_samples: int = 10_000_000,
    seed: int = 7,
    profile_law: str = "ordered",
) -> VerificationReport:
    """Every site's Laplacian-in-m term integrates to zero over the ordered box.

    ``method`` defaults to quadrature for n <= 3 and Monte Carlo above.  The
    quadrature path splits each site's bracket into three product integrals
    over the ordered box (:func:`drivenchain.core.ordered_simplex_integral`),
    judges every term at ``tol`` and records each term's summed error estimate
    in ``notes["quad_error"]``.  Monte Carlo passes are judged at four standard
    errors and record their seed; ``mc_samples`` < 1 is a ValueError.
    ``profile_law='independent-marginals'`` swaps in the impostor profile with
    the right marginals but no ordering; the residuals must then be far from
    zero, which is how the check's power is audited.
    """
    return _check_telescoping(
        Model.DISCRETE, params, [lambda_vec], tol, method, mc_samples, seed, profile_law
    )[0]


def check_telescoping_continuous(
    params: ChainParams,
    t_vec,
    tol: float = 1e-8,
    method: str | None = None,
    mc_samples: int = 10_000_000,
    seed: int = 7,
    profile_law: str = "ordered",
) -> VerificationReport:
    """Continuous-model analogue of :func:`check_telescoping_discrete`."""
    return _check_telescoping(
        Model.CONTINUOUS, params, [t_vec], tol, method, mc_samples, seed, profile_law
    )[0]


# ---------------------------------------------------------------------------
# Direct balance-equation residuals (particle chain)
# ---------------------------------------------------------------------------

# Default (truncation, tol) of the direct check by n; larger n take the last.
DIRECT_DEFAULTS = {1: (200, 1e-8), 2: (60, 1e-6)}
MAX_TABLE_ENTRIES = 2**18  # largest (extent + 1)^n candidate table the check builds


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
                     density_tol: float) -> np.ndarray:
    """The candidate law on {0..extent}^n, as an n-dimensional table."""
    n = spec.params.n
    ks = np.arange(extent + 1)
    if candidate == "mixture":
        return mixture_density_discrete(spec, np.tile(ks, (n, 1)), tol=density_tol).value
    if candidate == "product-geometric":
        pmfs = [geometric_pmf(m, ks) for m in moment_profile(spec).means]
    elif candidate == "product-marginals" and n > 1:  # at n = 1 it is the mixture
        pmfs = [marginal_pmf_discrete(spec, x, ks) for x in range(1, n + 1)]
    else:
        raise ValueError(f"unknown candidate {candidate!r} for n={n}")
    return functools.reduce(np.multiply.outer, pmfs)


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
    truncation: int,
    tol: float = 1e-8,
    candidate: str = "mixture",
    density_tol: float | None = None,
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
    (1 + rho_b).  An unattainable certificate yields an inconclusive report,
    not a failure.  ``candidate`` picks the measure under test: the exact
    mixture, or wrong products used to audit the check's power.
    """
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    n = params.n
    spec = MixtureSpec(params, Model.DISCRETE)
    rho_b = params.rho_b
    q = rho_b / (1.0 + rho_b)
    if density_tol is None:
        density_tol = min(1e-11, tol * 1e-4)
    k_sum = _tail_k(q, tol / 10.0, n_sums=2)
    meta = {"truncation": truncation, "candidate": candidate, "density_tol": density_tol}
    if k_sum is None:
        return VerificationReport(
            name="stationarity_direct_discrete",
            params=meta,
            residuals={"tail_bound": float("inf")},
            tolerances={"tail_bound": tol / 10.0},
            method="table",
            notes={"failure": "no truncation level meets the tail budget"},
            inconclusive=True,
        )
    tail_bound = 2.0 * q ** (k_sum + 1) / ((k_sum + 1) * (1.0 - q))
    extent = truncation + max(k_sum, truncation if n > 1 else 0)
    if (extent + 1) ** n > MAX_TABLE_ENTRIES:
        raise ValueError(f"direct balance check at n={n}, truncation {truncation} needs "
                         f"a {extent + 1}^{n} table, above MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}")
    try:
        mu = _candidate_table(spec, extent, candidate, density_tol)
    except QuadratureError as exc:
        return _report_quad_failure("stationarity_direct_discrete", meta, exc)
    worst = float(np.abs(_balance_residuals(mu, truncation, k_sum, params)).max())
    return VerificationReport(
        name="stationarity_direct_discrete",
        params=meta,
        residuals={"max_residual": worst},
        tolerances={"max_residual": tol},
        method="table",
        notes={"k_sum": k_sum, "tail_bound": tail_bound, "extent": extent, "n": n,
               "beta_a": params.beta_a, "beta_b": params.beta_b},
    )


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

    Exact equality is expected when the boundary parameters coincide; with a
    tiny gap the mixture must still track the product law at the midpoint
    mean, which is checked in relative terms (pass ``relative=True``).
    """
    spec = MixtureSpec(params, model)
    lo, hi = spec.interval
    n = params.n
    if model is Model.DISCRETE:
        values, density, law = np.arange(3), mixture_density_discrete, geometric_pmf
    else:
        values = np.array([0.0, 0.5, 1.5, 2.0, 2.5])
        density, law = mixture_density_continuous, exponential_pdf
    mix = density(spec, np.tile(values, (n, 1)), tol=min(tol * 1e-2, 1e-12)).value
    prod = functools.reduce(np.multiply.outer, [law(0.5 * (lo + hi), values)] * n)
    diff = np.abs(mix - prod)
    worst = float(np.max(diff / prod if relative else diff))
    return VerificationReport(
        name="equilibrium_limit",
        params={"n": n, "lo": lo, "hi": hi, "model": model.value,
                "relative": relative},
        residuals={"max_residual": worst},
        tolerances={"max_residual": tol},
        method="quadrature" if lo != hi else "product",
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

LAMBDA_GRID = tuple(np.round(np.arange(0.1, 1.0, 0.1), 10))


def t_grid(t_b: float) -> tuple[float, ...]:
    return (-1.0, -0.3, 0.1, 0.3, 0.6 / t_b)


def default_svec_grid(
    n: int, model: Model, hi: float, extra_random: int = 2, seed: int = 123
) -> list[np.ndarray]:
    """Constant, alternating, and seeded-random argument vectors.

    The identities hold for every admissible argument vector; a handful of
    deterministic representatives plus seeded random points stand in for the
    continuum.
    """
    rng = make_rng(seed)
    if model is Model.DISCRETE:
        consts = [0.1, 0.5, 0.9]
        alt = [0.3 if x % 2 == 0 else 0.7 for x in range(n)]
        rand = [rng.uniform(0.05, 0.95, size=n) for _ in range(extra_random)]
    else:
        consts = [-1.0, 0.1, 0.6 / hi]
        alt = [-0.5 if x % 2 == 0 else 0.3 / hi for x in range(n)]
        rand = [rng.uniform(-1.0, 0.9 / hi, size=n) for _ in range(extra_random)]
    vecs = [np.full(n, c) for c in consts] + [np.array(alt)] + rand
    return vecs


def identity_suite(
    tol_anti: float = 1e-10,
    tol_limit: float = 1e-4,
    tol_frullani: float = 1e-9,
) -> list[VerificationReport]:
    """Antiderivative identities across the default grids, plus Frullani."""
    reports = []
    for m in (0.5, 1.0, 2.0, 3.0):
        for lam in LAMBDA_GRID:
            reports.append(check_antiderivative_discrete(m, float(lam), tol_anti))
        for lam in (1.0 - 1e-6, 1.0 + 1e-6):
            reports.append(check_antiderivative_discrete(m, lam, tol_limit))
        for t in t_grid(m):
            reports.append(check_antiderivative_continuous(m, float(t), tol_anti))
        for t in (-1e-6, 1e-6):
            reports.append(check_antiderivative_continuous(m, t, tol_limit))
    for a, b in ((1.0, 2.0), (0.5, 3.0), (2.0, 2.0)):
        reports.append(check_frullani(a, b, tol_frullani))
    return reports


def telescoping_suite(
    params: ChainParams | None = None,
    sizes: tuple[int, ...] = (1, 2, 3, 5),
    tol: float = 1e-8,
    mc_samples: int = 10_000_000,
    seed: int = 7,
) -> list[VerificationReport]:
    """Telescoping residuals for both models across chain sizes.

    Each model's whole argument grid goes to one check, so a Monte Carlo
    size draws its profile sample once per model rather than once per
    vector; every report equals that of the per-vector
    ``check_telescoping_*`` call.
    """
    reports = []
    for n in sizes:
        if params is None:
            p = ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0)
        else:
            p = ChainParams(n=n, beta_a=params.beta_a, beta_b=params.beta_b,
                            t_a=params.t_a, t_b=params.t_b)
        for model in Model:
            grid = default_svec_grid(n, model, MixtureSpec(p, model).interval[1])
            reports.extend(_check_telescoping(
                model, p, grid, tol, None, mc_samples, seed, "ordered"))
    return reports


def stationarity_suite(
    beta_a: float = 0.5,
    beta_b: float = 0.75,
    truncation_1: int = DIRECT_DEFAULTS[1][0],
    truncation_2: int = DIRECT_DEFAULTS[2][0],
    tol_1: float = DIRECT_DEFAULTS[1][1],
    tol_2: float = DIRECT_DEFAULTS[2][1],
) -> list[VerificationReport]:
    """Direct balance residuals for one- and two-site chains."""
    p1 = ChainParams(n=1, beta_a=beta_a, beta_b=beta_b)
    p2 = ChainParams(n=2, beta_a=beta_a, beta_b=beta_b)
    return [
        check_stationarity_direct_discrete(p1, truncation_1, tol_1),
        check_stationarity_direct_discrete(p2, truncation_2, tol_2),
    ]


def equilibrium_suite(tol: float = 1e-12) -> list[VerificationReport]:
    reports = []
    for n in (2, 3):
        reports.append(
            check_equilibrium_limit(
                ChainParams(n=n, beta_a=2.0 / 3.0, beta_b=2.0 / 3.0), Model.DISCRETE, tol
            )
        )
        reports.append(
            check_equilibrium_limit(
                ChainParams(n=n, t_a=1.5, t_b=1.5), Model.CONTINUOUS, tol
            )
        )
    return reports


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
        out = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**kwargs)
