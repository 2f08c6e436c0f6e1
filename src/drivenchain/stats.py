"""Statistical comparison of simulator output against the exact law.

Trajectory data are time-weighted and autocorrelated, so nothing here assumes
i.i.d. input: effective sample sizes come from the integrated autocorrelation
time of the evenly spaced trajectory series (Geyer's initial positive
sequence estimator), histogram tests scale their counts by that effective
size, and profile/covariance standard errors carry the same correction.

:func:`integrated_autocorr_time` is the one kernel for those times: it takes
a block of series (or an iterator of blocks) and runs one rfft/irfft per
memory-bounded chunk of rows, each time equal bit for bit to that of the
series alone.  :func:`profile_report` feeds it the site series and the
centred pair products a chunk at a time.  ``ProfileReport.from_errors``
rebuilds a report from known standard errors, which is how ``compare``
re-checks the report ``simulate`` wrote instead of computing it again.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _sps

from .measure import MixtureSpec, moment_profile
from .occupation import IntHistogram, OccupationStats

__all__ = [
    "GofResult",
    "ProfileReport",
    "integrated_autocorr_time",
    "effective_sample_size",
    "chi_square_discrete",
    "ks_continuous",
    "profile_report",
]

MIN_EFFECTIVE_SAMPLES = 100.0


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

    ``series`` is one series (the result is a float), a (k, samples) block
    of k series, or an iterator of such blocks, all with the same number of
    samples, such as chunks built on the fly (the result is one time per
    row, in order).  FFT autocovariances, summed over consecutive lag pairs
    while those pair sums stay positive.  Clamped below at 1 (a conservative
    floor: shorter times would only enlarge the claimed effective sample).
    Rows run in chunks of about ``SPECTRUM_CHUNK_BYTES`` of spectrum, one
    rfft/irfft per chunk, and each row's time equals, bit for bit, the time
    of that row on its own.
    """
    if isinstance(series, Iterator):
        blocks = series
    else:
        x = np.asarray(series)
        if x.ndim == 1:
            return float(integrated_autocorr_time(x[np.newaxis])[0])
        blocks = iter([x])
    taus = [np.ones(0)]
    padded = np.empty((0, 0))
    for block in blocks:
        rows, n = block.shape
        tau = np.ones(rows)
        taus.append(tau)
        if n < 8:
            continue
        nfft = 1 << (2 * n - 1).bit_length()
        step = _chunk_rows(n)
        if padded.shape[1] != nfft or len(padded) < min(rows, step):
            # Shared by every chunk: fresh buffers would be paged in anew.
            padded = np.empty((min(rows, step), nfft))
            spectrum = np.empty((len(padded), nfft // 2 + 1), dtype=complex)
        for start in range(0, rows, step):
            chunk = block[start:start + step]
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
    return np.concatenate(taus)


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


def effective_sample_size(series):
    """Samples over the integrated autocorrelation time, per series."""
    x = np.asarray(series)
    return x.shape[-1] / integrated_autocorr_time(x)


def _series_mean_se(blocks: Iterator[np.ndarray]) -> np.ndarray:
    """Standard errors of the means of stationary series: the rows of
    ``blocks``, an iterator of blocks of one length."""
    variances = []
    length = 0

    def measured():
        nonlocal length
        for block in blocks:
            x = np.ascontiguousarray(block, dtype=float)  # row variances as for 1-D rows
            variances.append(x.var(axis=1))
            length = x.shape[1]
            yield x

    tau = integrated_autocorr_time(measured())
    var = np.concatenate(variances)
    return np.where(var == 0.0, 0.0, np.sqrt(var * tau / length))


def chi_square_discrete(
    observed,
    expected_pmf,
    effective_n: float,
    min_expected: float = 5.0,
) -> GofResult:
    """Chi-square test of a time-weighted occupation histogram.

    ``observed`` is an :class:`IntHistogram` or a weight array indexed by
    value; ``expected_pmf`` maps a value array to exact probabilities.  The
    open tail beyond the observed support forms its own cell with the exact
    complementary mass, and adjacent cells are merged from the tail inward
    until every expected count reaches ``min_expected``.
    """
    if isinstance(observed, IntHistogram):
        weights = np.asarray(observed.weights, dtype=float)
    else:
        weights = np.asarray(observed, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("observed histogram is empty")
    if effective_n < MIN_EFFECTIVE_SAMPLES:
        return GofResult(
            "chi-square", float("nan"), 0, effective_n, float("nan"),
            bins_note="insufficient effective samples", inconclusive=True,
        )
    values = np.arange(len(weights))
    p = np.asarray(expected_pmf(values), dtype=float)
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
        if acc_e >= min_expected:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if not merged_obs:
        return GofResult(
            "chi-square", float("nan"), 0, effective_n, float("nan"),
            bins_note="no cell reaches the minimum expected count",
            inconclusive=True,
        )
    merged_obs[-1] += acc_o
    merged_exp[-1] += acc_e
    o_arr = np.array(merged_obs)
    e_arr = np.array(merged_exp)
    stat = float(((o_arr - e_arr) ** 2 / e_arr).sum())
    dof = len(o_arr) - 1
    if dof < 1:
        return GofResult(
            "chi-square", stat, 0, effective_n, float("nan"),
            bins_note="fewer than two cells after merging", inconclusive=True,
        )
    p_value = float(_sps.chi2.sf(stat, dof))
    return GofResult(
        "chi-square", stat, dof, effective_n, p_value,
        bins_note=f"{len(o_arr)} cells, min expected {e_arr.min():.1f}",
    )


def ks_continuous(samples, expected_cdf, effective_n: float) -> GofResult:
    """Kolmogorov-Smirnov test of trajectory samples against an exact CDF.

    ``samples`` are equally weighted draws (the evenly spaced trajectory
    series); ``expected_cdf`` maps an array of points to CDF values.  The
    statistic uses the full empirical CDF, the p-value the effective size.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if effective_n < MIN_EFFECTIVE_SAMPLES:
        return GofResult(
            "ks", float("nan"), 0, effective_n, float("nan"),
            bins_note="insufficient effective samples", inconclusive=True,
        )
    cdf = np.asarray(expected_cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / n)))
    stat = max(d_plus, d_minus)
    p_value = float(_sps.kstwo.sf(stat, max(int(effective_n), 1)))
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
    def from_errors(cls, stats: OccupationStats, spec: MixtureSpec,
                    se_mean: np.ndarray, se_cov: np.ndarray) -> ProfileReport:
        """The report of a run whose standard errors are known.

        ``se_cov`` follows the pair order (1, 1), (1, 2), ..., (n, n).
        """
        exact = moment_profile(spec)
        n = stats.n_sites
        emp_mean = stats.mean()
        emp_cov = stats.cov()
        first, second = np.triu_indices(n)
        return cls(
            sites=np.arange(1, n + 1),
            emp_mean=emp_mean,
            se_mean=se_mean,
            exact_mean=exact.means,
            z_mean=np.array([_zscore(emp_mean[x] - exact.means[x], se_mean[x])
                             for x in range(n)]),
            pairs=[(int(i) + 1, int(j) + 1) for i, j in zip(first, second)],
            emp_cov=emp_cov[first, second],
            se_cov=se_cov,
            exact_cov=exact.covariance[first, second],
            z_cov=np.array([
                _zscore(emp_cov[i, j] - exact.covariance[i, j], se)
                for i, j, se in zip(first, second, se_cov)
            ]),
            notes={"replicas": len(stats.series), "duration": stats.duration},
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


def _zscore(diff: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / se


def profile_report(stats: OccupationStats, spec: MixtureSpec) -> ProfileReport:
    """Compare a run's moments with the exact stationary moments.

    Means come from the exact time-weighted accumulators; their standard
    errors from per-replica series autocorrelation times, combined as
    independent replicas.  Covariance errors use the autocorrelation time of
    the centred product series, built a chunk of pairs at a time.  The
    series-based errors are exact when the sampling interval sits below the
    autocorrelation time and conservative (over-estimates) when the grid is
    coarser than that.  ``notes["autocorr_series"]`` counts the series whose
    autocorrelation time the report computed.
    """
    if stats.duration <= 0.0:
        raise ValueError("no post-burn-in time accumulated")
    n = stats.n_sites
    emp_mean = stats.mean()
    first, second = np.triu_indices(n)
    # Squared errors summed over replicas as Python floats: x ** 2 is C pow,
    # which x * x does not always match to the last bit.
    mean_sq = [0.0] * n
    cov_sq = [0.0] * len(first)
    for s in stats.series:
        step = _chunk_rows(len(s))
        sites = s.T
        mean_se = _series_mean_se(sites[k:k + step] for k in range(0, n, step))
        mean_sq = [a + b ** 2 for a, b in zip(mean_sq, mean_se.tolist())]

        def products():
            for k in range(0, len(first), step):
                i, j = first[k:k + step], second[k:k + step]
                yield (sites[i] - emp_mean[i, np.newaxis]) * (sites[j] - emp_mean[j, np.newaxis])

        cov_sq = [a + b ** 2 for a, b in zip(cov_sq, _series_mean_se(products()).tolist())]
    r = len(stats.series)
    rep = ProfileReport.from_errors(stats, spec, np.sqrt(mean_sq) / r, np.sqrt(cov_sq) / r)
    rep.notes["autocorr_series"] = r * (n + len(first))
    return rep
