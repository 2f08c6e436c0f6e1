"""Statistical comparison of simulator output against the exact law.

Trajectory data are time-weighted and autocorrelated, so nothing here assumes
i.i.d. input: effective sample sizes come from the integrated autocorrelation
time of the evenly spaced trajectory series (Geyer's initial positive
sequence estimator), and the goodness-of-fit tests judge their sample at
that effective size.  Every moment standard error follows one rule: the claimed
law's variance of the averaged quantity (``moment_profile``'s site variance
or pair-product variance), times an autocorrelation time, over the number of
samples.

:func:`integrated_autocorr_time` is the one kernel for the site times: it
takes a block of series and runs one rfft/irfft per memory-bounded chunk of
rows, each time equal bit for bit to that of the series alone.  Each
replica's site times are computed once, by :func:`site_autocorr_times`, and
cached on its ``OccupationStats``: the CLI fills that cache in each
replica's job (a pool worker), :func:`profile_report` computes only the
entries a stats object lacks, and ``compare`` reads the times ``simulate``
recorded.  A pair's time is a batch-means time of its centred product
series, built a tile of site pairs at a time.  Rebuilt from known standard
errors by ``ProfileReport.from_errors``, a report is re-checked by
``compare``, not computed again.

The p-values import scipy where they are taken, so importing this module
loads neither ``scipy.special`` nor ``scipy.stats``: the chi-square test uses
``scipy.special.chdtrc``, the function ``scipy.stats.chi2.sf`` calls, and only
the KS test loads ``scipy.stats``, for the exact finite-n law ``kstwo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measure import MixtureSpec, ProfileMoments, moment_profile
from .occupation import OccupationStats

__all__ = [
    "GofResult",
    "ProfileReport",
    "integrated_autocorr_time",
    "effective_sample_size",
    "site_autocorr_times",
    "chi_square_discrete",
    "ks_continuous",
    "profile_report",
]

MIN_EFFECTIVE_SAMPLES = 100.0
MIN_EXPECTED_COUNT = 5.0  # chi-square cells merge until each expects this many


@dataclass
class GofResult:
    """One goodness-of-fit verdict with the numbers behind it."""

    name: str
    statistic: float
    dof: int
    effective_n: float
    p_value: float
    bins_note: str = ""
    inconclusive: bool = False

    def passed(self, level: float = 0.01) -> bool:
        return not self.inconclusive and self.p_value > level


# Rows per FFT chunk are chosen so that a chunk's spectrum takes about this
# many bytes: enough rows to amortise the per-call cost of short series, few
# enough that the chunk buffers add little to a run's resident memory.
SPECTRUM_CHUNK_BYTES = 512 << 10


def _chunk_rows(length: int) -> int:
    """Series of ``length`` samples per FFT chunk."""
    nfft = 1 << (2 * length - 1).bit_length()
    return max(1, SPECTRUM_CHUNK_BYTES // (16 * (nfft // 2 + 1)))


def integrated_autocorr_time(series):
    """Integrated autocorrelation time via the initial positive sequence.

    ``series`` is one series (the result is a float) or a (k, samples) block
    of k series, which may be a strided view (the result is one time per
    row, in order).  FFT autocovariances, summed over consecutive lag pairs
    while those pair sums stay positive.  Clamped below at 1 (a conservative
    floor: shorter times would only enlarge the claimed effective sample).
    Rows run in chunks of about ``SPECTRUM_CHUNK_BYTES`` of spectrum, one
    rfft/irfft per chunk, and each row's time equals, bit for bit, the time
    of that row on its own.
    """
    x = np.asarray(series)
    if x.ndim == 1:
        return float(integrated_autocorr_time(x[np.newaxis])[0])
    rows, n = x.shape
    tau = np.ones(rows)
    if n < 8:
        return tau
    nfft = 1 << (2 * n - 1).bit_length()
    step = _chunk_rows(n)
    # Shared by every chunk: fresh buffers would be paged in anew.
    padded = np.empty((min(rows, step), nfft))
    spectrum = np.empty((len(padded), nfft // 2 + 1), dtype=complex)
    for start in range(0, rows, step):
        chunk = x[start:start + step]
        centred = padded[:len(chunk), :n]
        centred[:] = chunk  # contiguous rows: means sum as a 1-D mean does
        centred -= centred.mean(axis=1, keepdims=True)
        live = ~(np.einsum("ij,ij->i", centred, centred) <= 0.0)  # constant rows keep 1
        k = int(np.count_nonzero(live))
        if k < len(chunk):
            centred[:k] = centred[live]
        padded[:k, n:] = 0.0
        np.fft.rfft(padded[:k], axis=1, out=spectrum[:k])
        for row in spectrum[:k]:
            # A fresh product per row: numpy's complex multiply rounds an
            # in-place row differently depending on where the row starts.
            row[:] = row * np.conj(row)
        np.fft.irfft(spectrum[:k], nfft, axis=1, out=padded[:k])
        tau[start:start + step][live] = _geyer_sum(padded[:k, :n])
    return tau


def _geyer_sum(acov: np.ndarray) -> np.ndarray:
    """Initial-positive-sequence times from the rows of n * autocovariance (overwritten)."""
    n = acov.shape[1]
    rho = acov
    rho /= n  # the autocovariances
    rho /= rho[:, :1].copy()  # their correlations
    pairs = rho[:, 0:n - 1:2] + rho[:, 1:n:2]
    non_positive = pairs <= 0.0
    summed = np.where(non_positive.any(axis=1), non_positive.argmax(axis=1), n // 2)
    # tau = -1 + twice the pairs before the first non-positive one, added in
    # lag order (a sequential cumsum, as a scalar loop would).
    width = summed.max(initial=0)
    terms = np.empty((len(pairs), width + 1))
    terms[:, 0] = -1.0
    np.multiply(pairs[:, :width], 2.0, out=terms[:, 1:])
    np.cumsum(terms, axis=1, out=terms)
    return np.maximum(terms[np.arange(len(summed)), summed], 1.0)


def effective_sample_size(series, tau=None):
    """Samples over the integrated autocorrelation time, per series.

    ``tau`` is the series' time (one per row), when already known, as from
    :func:`site_autocorr_times` or a run's recorded ``autocorr_times``;
    otherwise it is computed here.
    """
    x = np.asarray(series)
    return x.shape[-1] / (integrated_autocorr_time(x) if tau is None else tau)


def site_autocorr_times(stats: OccupationStats) -> list[np.ndarray]:
    """Each series' (n,) site autocorrelation times, in series order.

    Entries ``stats.autocorr_times`` caches are returned as they are; the
    missing ones are computed by :func:`integrated_autocorr_time` and cached.
    """
    cached = stats.autocorr_times + [None] * (len(stats.series) - len(stats.autocorr_times))
    stats.autocorr_times = [integrated_autocorr_time(s.T) if tau is None else tau
                            for s, tau in zip(stats.series, cached)]
    return stats.autocorr_times


def _inconclusive(name: str, effective_n: float, note: str, statistic: float = np.nan) -> GofResult:
    """A verdict the data cannot give, with no degrees of freedom or p-value."""
    return GofResult(name, statistic, 0, effective_n, np.nan, bins_note=note, inconclusive=True)


def chi_square_discrete(observed, expected_pmf, effective_n: float) -> GofResult:
    """Chi-square test of a histogram of holding times or of sample counts.

    ``observed`` is an :class:`IntHistogram` or a weight array indexed by
    value; ``expected_pmf`` maps a value array to exact probabilities, which
    must be finite and non-negative, as ``effective_n`` must be finite (a
    ValueError otherwise).  The observed shares are scaled to ``effective_n``.
    The open tail beyond the observed support forms its own cell with the
    exact complementary mass, and adjacent cells are merged from the tail
    inward until every expected count reaches ``MIN_EXPECTED_COUNT``: the
    expected counts sum to at least ``effective_n``, so at least one cell does.
    """
    weights = np.asarray(getattr(observed, "weights", observed), dtype=float)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("observed histogram is empty")
    if not math.isfinite(effective_n):
        raise ValueError(f"effective sample size must be finite, got {effective_n}")
    if effective_n < MIN_EFFECTIVE_SAMPLES:
        return _inconclusive("chi-square", effective_n, "insufficient effective samples")
    values = np.arange(len(weights))
    p = np.asarray(expected_pmf(values), dtype=float)
    if not ((p >= 0.0) & (p < math.inf)).all():  # NaN fails both
        raise ValueError("expected probabilities must be finite and non-negative")
    obs = effective_n * weights / total
    exp = effective_n * p
    # Open tail cell: everything above the observed support.
    tail_mass = max(1.0 - p.sum(), 0.0)
    obs = np.append(obs, 0.0)
    exp = np.append(exp, effective_n * tail_mass)
    merged_obs: list[float] = []
    merged_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs[::-1], exp[::-1]):  # merge from the tail inward
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED_COUNT:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    merged_obs[-1] += acc_o
    merged_exp[-1] += acc_e
    o_arr = np.array(merged_obs)
    e_arr = np.array(merged_exp)
    stat = float(((o_arr - e_arr) ** 2 / e_arr).sum())
    dof = len(o_arr) - 1
    if dof < 1:
        return _inconclusive("chi-square", effective_n, "fewer than two cells after merging", stat)
    from scipy.special import chdtrc  # what scipy.stats.chi2.sf calls

    p_value = float(chdtrc(dof, stat))
    return GofResult(
        "chi-square", stat, dof, effective_n, p_value,
        bins_note=f"{len(o_arr)} cells, min expected {e_arr.min():.1f}",
    )


def ks_continuous(samples, expected_cdf, effective_n: float) -> GofResult:
    """Kolmogorov-Smirnov test of trajectory samples against an exact CDF.

    ``samples`` are equally weighted draws (the evenly spaced trajectory
    series); ``expected_cdf`` maps an array of points to CDF values.  The
    statistic uses the full empirical CDF, the p-value the effective size.
    A sample or ``effective_n`` that is not finite, or a CDF value outside
    [0, 1], is a ValueError.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if not (np.isfinite(x).all() and math.isfinite(effective_n)):
        raise ValueError("KS samples and effective sample size must be finite")
    if effective_n < MIN_EFFECTIVE_SAMPLES:
        return _inconclusive("ks", effective_n, "insufficient effective samples")
    cdf = np.asarray(expected_cdf(x), dtype=float)
    if not ((cdf >= 0.0) & (cdf <= 1.0)).all():  # NaN fails both
        raise ValueError("expected CDF values must lie in [0, 1]")
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / n)))
    stat = max(d_plus, d_minus)
    from scipy.stats import kstwo  # exact two-sided finite-n law; scipy.special has none

    p_value = float(kstwo.sf(stat, max(int(effective_n), 1)))
    return GofResult("ks", stat, 0, effective_n, p_value,
                     bins_note=f"{n} samples")


@dataclass
class ProfileReport:
    """Empirical vs exact site means and pair covariances with z-scores."""

    sites: np.ndarray
    emp_mean: np.ndarray
    se_mean: np.ndarray
    exact_mean: np.ndarray
    z_mean: np.ndarray
    pairs: list[tuple[int, int]]
    emp_cov: np.ndarray
    se_cov: np.ndarray
    exact_cov: np.ndarray
    z_cov: np.ndarray
    notes: dict = field(default_factory=dict)

    @classmethod
    def from_errors(cls, stats: OccupationStats, exact: ProfileMoments,
                    se_mean: np.ndarray, se_cov: np.ndarray) -> ProfileReport:
        """The report of a run whose standard errors are known, against the
        claimed law's moments ``exact``.

        ``se_cov`` follows the pair order (1, 1), (1, 2), ..., (n, n).
        """
        n = stats.n_sites
        emp_mean = stats.mean()
        first, second = np.triu_indices(n)
        emp_cov, exact_cov = stats.cov()[first, second], exact.covariance[first, second]
        return cls(
            sites=np.arange(1, n + 1),
            emp_mean=emp_mean,
            se_mean=se_mean,
            exact_mean=exact.means,
            z_mean=_zscores(emp_mean - exact.means, se_mean),
            pairs=[(int(i) + 1, int(j) + 1) for i, j in zip(first, second)],
            emp_cov=emp_cov,
            se_cov=se_cov,
            exact_cov=exact_cov,
            z_cov=_zscores(emp_cov - exact_cov, se_cov),
        )

    @property
    def max_abs_z(self) -> float:
        """Largest |z|, NaN skipped: inf if a nonzero miss has zero standard error."""
        zs = np.abs(np.concatenate([self.z_mean, self.z_cov]))
        zs = zs[~np.isnan(zs)]
        return float(zs.max()) if zs.size else 0.0

    def mean_rows(self):
        """(site, emp_mean, se, exact_mean, z) per site, as Python scalars."""
        return zip(self.sites.tolist(), self.emp_mean.tolist(), self.se_mean.tolist(),
                   self.exact_mean.tolist(), self.z_mean.tolist())

    def cov_rows(self):
        """(x, y, emp_cov, se, exact_cov, z) per pair, as Python scalars."""
        xs, ys = zip(*self.pairs)
        return zip(xs, ys, self.emp_cov.tolist(), self.se_cov.tolist(),
                   self.exact_cov.tolist(), self.z_cov.tolist())


def _zscores(diff: np.ndarray, se: np.ndarray) -> np.ndarray:
    """diff / se, with 0 (no miss) or an infinity of the miss's sign where se is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / se
    return np.where(se == 0.0, np.where(diff == 0.0, 0.0, np.copysign(np.inf, diff)), z)


# Batches per replica of each centred pair product: the covariance errors'
# autocorrelation time comes from the variance of their means.
COV_BATCHES = 32


def _batch_means_tau(products: np.ndarray) -> np.ndarray:
    """Batch-means autocorrelation times of the C-contiguous rows of
    ``products`` (k, L), which are overwritten.

    Each row splits into COV_BATCHES batches of b = L // COV_BATCHES samples
    (the last L mod COV_BATCHES samples join none), and its time is
    b Var(batch means, ddof 1) / Var(row), clamped below at 1 like the site
    times.  It is 1 where the row's variance is 0, where the ratio would be
    0/0: a constant product, as when both sites never moved.  Var(row) is
    ``np.var``'s, bit for bit, taken in place.
    """
    rows, length = products.shape
    size = length // COV_BATCHES
    batches = products[:, :COV_BATCHES * size].reshape(rows, COV_BATCHES, size)
    spread = batches.mean(axis=2).var(axis=1, ddof=1)
    mean = products.sum(axis=1, keepdims=True)
    mean /= length
    products -= mean
    np.square(products, out=products)
    var = products.sum(axis=1) / length
    live = var > 0.0
    tau = np.ones(rows)
    tau[live] = np.maximum(size * spread[live] / var[live], 1.0)
    return tau


def _pair_taus(series: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Batch-means times of the centred pair products of one replica's (L, n)
    ``series``, (n, n) with the pair (x, y), x <= y, at [x, y].

    Every time is 1 when L < 2 COV_BATCHES: batches of one sample show no
    correlation.  The products are built a tile of sites at a time, each
    site's samples centred at ``mean`` as a contiguous row.
    """
    length, n = series.shape
    tau = np.ones((n, n))
    if length < 2 * COV_BATCHES:
        return tau
    k = max(1, math.isqrt(SPECTRUM_CHUNK_BYTES // (8 * length)))  # k x k products per tile
    left, right, products = np.empty((k, length)), np.empty((k, length)), np.empty((k * k, length))
    for a in range(0, n, k):
        rows = np.subtract(series[:, a:a + k].T, mean[a:a + k, np.newaxis],
                           out=left[:min(k, n - a)])
        for b in range(a, n, k):
            cols = np.subtract(series[:, b:b + k].T, mean[b:b + k, np.newaxis],
                               out=right[:min(k, n - b)])
            tile = products[:len(rows) * len(cols)]
            np.multiply(rows[:, np.newaxis], cols, out=tile.reshape(len(rows), len(cols), length))
            tau[a:a + k, b:b + k] = _batch_means_tau(tile).reshape(len(rows), len(cols))
    return tau


def profile_report(stats: OccupationStats, spec: MixtureSpec) -> ProfileReport:
    """Compare a run's moments with the exact stationary moments.

    Means come from the exact time-weighted accumulators.  A covariance is
    the mean of the centred pair product (v_x - mu_x)(v_y - mu_y).  Every
    standard error takes its variance from the claimed law, not from the
    series whose mean is the estimate: that variance moves with the
    estimate and skews the z-scores to the left.  Each replica of L grid
    points contributes one vector of squared errors Var_exact tau / L, the
    n sites and then the n(n+1)/2 pairs (1, 1), (1, 2), ..., (n, n).  Var_exact is the diagonal
    of ``moment_profile``'s covariance, then its ``product_variance``.  tau
    is the site's Geyer time from :func:`site_autocorr_times` (so only
    series the stats object has not timed are timed here), then the pair's
    batch-means time from :func:`_pair_taus` (1 when L < 2 COV_BATCHES or
    the product is constant).  Replicas combine as sqrt(sum_r se_r**2) / R.
    ``notes["autocorr_series"]`` counts the R n site series whose Geyer
    times the errors rest on.

    Under the claimed law a covariance z is close to Student's t with
    COV_BATCHES - 1 degrees of freedom: |z| >= 4 has probability about
    3.7e-4 per entry, against 6.3e-5 for a Gaussian.
    ``notes["covariance_error"]`` records the rule and COV_BATCHES.

    The Geyer times are exact when the sampling interval sits below the
    autocorrelation time and conservative (over-estimates) when the grid
    is coarser than that.
    """
    if stats.duration <= 0.0:
        raise ValueError("no post-burn-in time accumulated")
    n = stats.n_sites
    emp_mean = stats.mean()
    first, second = np.triu_indices(n)
    exact = moment_profile(spec)
    var_exact = np.concatenate([np.diag(exact.covariance), exact.product_variance[first, second]])
    # Squared errors (sites, then pairs) summed over replicas as Python
    # floats: x ** 2 is C pow, which x * x does not always match to the last bit.
    sq = [0.0] * len(var_exact)
    for s, tau in zip(stats.series, site_autocorr_times(stats)):
        taus = np.concatenate([tau, _pair_taus(s, emp_mean)[first, second]])
        sq = [a + b ** 2 for a, b in zip(sq, np.sqrt(var_exact * taus / len(s)).tolist())]
    se = np.sqrt(sq) / len(stats.series)
    rep = ProfileReport.from_errors(stats, exact, se[:n], se[n:])
    rep.notes["autocorr_series"] = len(stats.series) * n
    rep.notes["covariance_error"] = {"rule": "exact product variance x batch-means tau",
                                     "batches": COV_BATCHES}
    return rep
