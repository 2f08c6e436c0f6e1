"""Command-line front end: simulate, sample-exact, verify, compare.

Configuration comes from flags, optionally seeded by a ``key=value`` config
file (flags win).  One table, ``READS``, lists the ``RunConfig`` fields each
run reads: per chain model for ``simulate`` and ``sample-exact``, per check
for ``verify``.  It gives every subcommand its flags, and an option that the
run would not read, given by flag or by config file, is a configuration
error.  Every run writes a ``meta.json`` carrying the options it read (its
``READS`` entry, seed included) and library versions, so any output is
reproducible from its own metadata; wall-clock timings go to stderr only,
keeping all written files byte-stable across reruns.

``simulate`` computes each replica's site autocorrelation times once, in
that replica's job (a pool worker under ``--workers``), and records them in
``meta.json`` as ``autocorr_times``; ``compare`` checks their form and takes
its effective sample sizes from them, running no FFT of its own.  Both of
its goodness-of-fit tests count the sample those sizes describe, each site's
``series.npy`` values over all replicas; it reads no ``histograms.csv``.

Exit codes are stable API: 0 success/pass, 1 runtime error, 2 configuration
error, 3 verification or comparison failure, 4 inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .continuous_sim import check_epsilon, simulate_continuous
from .core import ChainParams, make_rng
from .discrete_sim import simulate
from .measure import (
    QUADRATURE_MAX_SITES,
    MixtureSpec,
    Model,
    marginal_cdf_continuous,
    marginal_pmf_discrete,
    moment_profile,
    sample_exact_continuous,
    sample_exact_discrete,
    uses_quadrature,
)
from .occupation import DEFAULT_GRID_SAMPLES, IntHistogram, OccupationStats
from .stats import (
    ProfileReport,
    _zscores,
    chi_square_discrete,
    effective_sample_size,
    ks_continuous,
    profile_report,
    site_autocorr_times,
)
from .verify import (
    LEAST_MC_SAMPLES,
    SUITES,
    check_stationarity_direct_discrete,
    run_suite,
)

ENV_OUTDIR = "DRIVENCHAIN_OUTDIR"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_FAIL = 3
EXIT_INCONCLUSIVE = 4


@dataclass
class RunConfig:
    """Everything a subcommand needs, resolved from file defaults and flags."""

    command: str
    model: str = "discrete"
    n: int = 5
    beta_a: float = 0.5
    beta_b: float = 0.75
    t_a: float = 1.0
    t_b: float = 2.0
    epsilon: float | None = None
    t_max: float = 1e4
    burn_in: float | None = None
    replicas: int = 1
    seed: int = 0
    workers: int | None = None
    grid_samples: int = DEFAULT_GRID_SAMPLES
    out: str = ""
    samples: int = 100_000
    suite: str = "all"
    truncation: int | None = None
    tol: float | None = None
    mc_samples: int | None = None
    sizes: tuple[int, ...] = (1, 2, 3, 5)
    candidate: str = "mixture"
    sim_dir: str = ""
    level: float = 0.01

    def chain_params(self) -> ChainParams:
        return ChainParams(
            n=self.n, beta_a=self.beta_a, beta_b=self.beta_b,
            t_a=self.t_a, t_b=self.t_b,
        )


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` of plain Python values under ``header``.

    csv renders a float by ``repr`` (the shortest text that reads back to the
    same value) and an int by ``str``.  Callers convert numpy data with
    ``.tolist()``: a numpy scalar would go through numpy's own ``str``, one
    slow call per value, and a float32 would lose digits.  ``samples.csv``,
    one numeric array, has its own faster writer, ``_write_samples``.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# Rows of samples.csv formatted at once: bounds the memory of a large --samples.
SAMPLE_BLOCK = 1 << 16


def _write_samples(path: Path, draws: np.ndarray) -> None:
    """Write ``draws`` (rows, n) under a site_1..site_n header, the bytes
    ``_write_csv`` would write: ``%r`` renders a Python int by ``str`` and a
    float by ``repr`` as csv does, and no number needs quoting.  Each block of
    at most SAMPLE_BLOCK rows is one %-format over its values."""
    n = draws.shape[1]
    row = ",".join(["%r"] * n) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"site_{x}" for x in range(1, n + 1)) + "\r\n")
        for start in range(0, len(draws), SAMPLE_BLOCK):
            block = draws[start:start + SAMPLE_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_meta(outdir: Path, cfg: RunConfig, variant: str, extra: dict | None = None) -> None:
    read = READS[cfg.command][variant]
    meta = {
        "config": {name: getattr(cfg, name) for name in ("command", *read)},
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": ".".join(map(str, sys.version_info[:3])),
    }
    if extra:
        meta.update(extra)
    with open(outdir / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _resolve_outdir(cfg: RunConfig) -> Path:
    out = cfg.out or os.environ.get(ENV_OUTDIR, "") or "."
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _replica_job(args) -> OccupationStats:
    """One replica's run, its site autocorrelation times cached: in a pool
    worker, its FFTs run beside the other replicas' runs."""
    model, params, t_max, burn_in, epsilon, grid_samples, child_seq = args
    rng = np.random.Generator(np.random.PCG64(child_seq))
    run = simulate if Model(model) is Model.DISCRETE else simulate_continuous
    cutoff = {} if epsilon is None else {"epsilon": epsilon}  # only energies read --epsilon
    stats = run(params, t_max, burn_in=burn_in, rng=rng, grid_samples=grid_samples, **cutoff)
    site_autocorr_times(stats)
    return stats


def _run_replicas(cfg: RunConfig, params: ChainParams) -> OccupationStats:
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)
    jobs = [
        (cfg.model, params, cfg.t_max, cfg.burn_in, cfg.epsilon, cfg.grid_samples, c)
        for c in children
    ]
    workers = cfg.workers or os.cpu_count() or 1
    if cfg.replicas == 1 or workers == 1:
        results = [_replica_job(j) for j in jobs]
    else:
        if Model(cfg.model) is Model.CONTINUOUS:
            import scipy.special  # noqa: F401  loaded once here, inherited by each forked worker
        with ProcessPoolExecutor(max_workers=min(workers, cfg.replicas)) as pool:
            results = list(pool.map(_replica_job, jobs))
    merged = results[0]
    for r in results[1:]:
        merged = merged.merge(r)
    return merged


def _write_histograms(outdir: Path, stats: OccupationStats) -> None:
    rows = []
    for x, h in enumerate(stats.hists, start=1):
        if isinstance(h, IntHistogram):
            rows.extend((x, v, "", w) for v, w in enumerate(h.weights) if w > 0.0)
        else:  # the underflow and overflow slots always, a bin when it holds weight
            bounds = ["-inf", *h.edges().tolist(), "inf"]
            rows.extend((x, bounds[i], bounds[i + 1], w) for i, w in enumerate(h.weights)
                        if w > 0.0 or i in (0, h.n_bins + 1))
    _write_csv(outdir / "histograms.csv", ["site", "value_or_lo", "hi", "weight"], rows)


_PROFILE_HEADER = ["site", "emp_mean", "se", "exact_mean", "z"]
_COVARIANCE_HEADER = ["x", "y", "emp_cov", "se", "exact_cov", "z"]


def _write_profile(outdir: Path, rep: ProfileReport, prefix: str = "") -> None:
    _write_csv(outdir / f"{prefix}profile.csv", _PROFILE_HEADER, rep.mean_rows())
    _write_csv(outdir / f"{prefix}covariance.csv", _COVARIANCE_HEADER, rep.cov_rows())


def _read_profile(sim_dir: Path, stats: OccupationStats, spec: MixtureSpec) -> ProfileReport:
    """The profile report ``simulate`` wrote to ``sim_dir``, checked against the run.

    Only the standard errors are taken from the files.  Every other field
    must equal, to the last bit, what the run's accumulators, the exact law
    and the z-score of the read errors give; a mismatched file is a
    ValueError, never a reason to recompute the report.
    """
    tables, errors = [], []
    for name, header in (("profile.csv", _PROFILE_HEADER),
                         ("covariance.csv", _COVARIANCE_HEADER)):
        path = sim_dir / name
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [header]:
            raise ValueError(f"{path}: header is not {','.join(header)}")
        try:
            errors.append(np.array([float(row[header.index("se")]) for row in rows[1:]]))
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable se column ({exc})") from None
        tables.append((path, rows[1:]))
    n = stats.n_sites
    for (path, rows), want in zip(tables, (n, n * (n + 1) // 2)):
        if len(rows) != want:
            raise ValueError(f"{path} has {len(rows)} rows, the run in {sim_dir} needs {want}")
    rep = ProfileReport.from_errors(stats, moment_profile(spec), *errors)
    for (path, rows), expected in zip(tables, (rep.mean_rows(), rep.cov_rows())):
        for line, (row, want) in enumerate(zip(rows, expected), start=2):
            want = [str(v) for v in want]
            if row != want:
                raise ValueError(f"{path} line {line} reads {','.join(row)}, "
                                 f"the run in {sim_dir} gives {','.join(want)}")
    return rep


def _run_counters(stats: OccupationStats) -> dict:
    """The run's deterministic diagnostics (never its wall-clock rate), and the
    energy chain's cutoff and per-replica injection acceptance."""
    extra = stats.extra
    counters = {key: extra[key] for key in
                ("max_resync_drift", "resyncs", "channel_events", "epsilon")
                if key in extra}
    counters.update({key: stats.per_replica(key) for key in ("acceptance_a", "acceptance_b")
                     if key in extra})
    return counters


def cmd_simulate(cfg: RunConfig, variant: str) -> int:
    params = cfg.chain_params()
    t0 = time.perf_counter()
    stats = _run_replicas(cfg, params)
    t1 = time.perf_counter()
    rep = profile_report(stats, MixtureSpec(params, Model(cfg.model)))
    t2 = time.perf_counter()
    outdir = _resolve_outdir(cfg)  # only now: a rejected configuration leaves no directory
    _write_histograms(outdir, stats)
    _write_profile(outdir, rep)
    np.save(outdir / "series.npy", np.stack(stats.series))
    _write_meta(outdir, cfg, variant, {
        "accumulators": {
            "duration": stats.duration,
            "event_count": stats.event_count,
            "mean_acc": stats.mean_acc.tolist(),
            "second_acc": stats.second_acc.tolist(),
            "series_dt": stats.series_dt,
            "injected_a": stats.injected_a,
            "extracted_a": stats.extracted_a,
            "injected_b": stats.injected_b,
            "extracted_b": stats.extracted_b,
        },
        "autocorr_series": rep.notes["autocorr_series"],
        "autocorr_times": [tau.tolist() for tau in stats.autocorr_times],
        "covariance_error": rep.notes["covariance_error"],
        **_run_counters(stats),
    })
    t3 = time.perf_counter()
    print(
        f"simulate: {stats.event_count} events over {cfg.replicas} replica(s); "
        f"run {t1 - t0:.1f}s, report {t2 - t1:.1f}s, write {t3 - t2:.1f}s -> {outdir}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample-exact
# ---------------------------------------------------------------------------

def cmd_sample_exact(cfg: RunConfig, variant: str) -> int:
    spec = MixtureSpec(cfg.chain_params(), cfg.model)
    sample = sample_exact_discrete if spec.model is Model.DISCRETE else sample_exact_continuous
    draws = sample(spec, make_rng(cfg.seed), size=cfg.samples)
    exact = moment_profile(spec)
    emp_mean = draws.mean(axis=0)
    se = np.sqrt(np.diag(exact.covariance) / cfg.samples)  # the claimed law's, as in profile.csv
    z = _zscores(emp_mean - exact.means, se)
    outdir = _resolve_outdir(cfg)  # only now: a rejected configuration leaves no directory
    _write_samples(outdir / "samples.csv", draws)
    _write_csv(
        outdir / "moments.csv",
        _PROFILE_HEADER,
        zip(range(1, cfg.n + 1), emp_mean.tolist(), se.tolist(),
            exact.means.tolist(), z.tolist()),
    )
    _write_meta(outdir, cfg, variant)
    print(f"sample-exact: {cfg.samples} draws -> {outdir}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig, variant: str) -> int:
    if variant == "direct check":
        reports = [check_stationarity_direct_discrete(
            ChainParams(n=cfg.n, beta_a=cfg.beta_a, beta_b=cfg.beta_b), cfg.truncation,
            cfg.tol, candidate=cfg.candidate)]
    else:
        kwargs = {} if cfg.tol is None else {"tol": cfg.tol}
        if cfg.suite == "telescoping":
            kwargs.update(sizes=cfg.sizes, mc_samples=cfg.mc_samples, seed=cfg.seed)
        reports = run_suite(cfg.suite, **kwargs)
    outdir = _resolve_outdir(cfg)  # only now: a rejected configuration leaves no directory
    with open(outdir / "reports.jsonl", "w") as fh:
        for r in reports:
            fh.write(r.to_json())
            fh.write("\n")
    _write_meta(outdir, cfg, variant)
    n_fail = sum(1 for r in reports if not r.passed and not r.inconclusive)
    n_inc = sum(1 for r in reports if r.inconclusive)
    for r in reports:
        status = "INCONCLUSIVE" if r.inconclusive else ("PASS" if r.passed else "FAIL")
        print(f"{status:12s} {r.name} max_residual={r.max_residual:.3e}",
              file=sys.stderr)
    if n_fail:
        return EXIT_FAIL
    if n_inc:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _load_sim_dir(sim_dir: Path) -> tuple[RunConfig, OccupationStats]:
    """A saved run's configuration (its recorded fields over the defaults) and
    what ``compare`` tests of it: the moment accumulators, the series and
    their recorded site autocorrelation times.  ValueError unless ``sim_dir``
    holds the output of ``simulate`` with every file ``compare`` reads; a
    malformed file is one too, naming the file: meta.json (its
    ``autocorr_times`` too, unless R lists of n finite times >= 1), or
    series.npy of another shape or dtype than the run's.  ``cmd_compare``
    checks the series values, a site at a time.  The times are trusted as
    ``profile.csv``'s standard errors are: checked for form, not recomputed."""
    path = sim_dir / "meta.json"
    with open(path) as fh:
        meta = json.load(fh)
    try:
        cfg = RunConfig(**meta["config"])
        if cfg.command != "simulate":
            raise ValueError(f"{sim_dir} holds the output of {cfg.command}, not of simulate")
        acc = {key: meta["accumulators"][key] for key in ("duration", "mean_acc", "second_acc")}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not the record of a simulate run: {exc!r}") from None
    try:
        taus = np.array(meta["autocorr_times"], dtype=float)
    except KeyError:
        raise ValueError(f"{path} records no autocorr_times: rerun simulate") from None
    except (TypeError, ValueError):  # ragged or not numbers
        taus = None
    if taus is None or taus.shape != (cfg.replicas, cfg.n):
        raise ValueError(f"{path}: autocorr_times is not {cfg.replicas} list(s) of {cfg.n} "
                         "times, one list per replica")
    if not (np.isfinite(taus).all() and (taus >= 1.0).all()):  # Geyer's clamp keeps tau >= 1
        raise ValueError(f"{path}: autocorr_times holds a time that is not finite or is below 1")
    for name in ["profile.csv", "covariance.csv", "series.npy"]:
        if not (sim_dir / name).is_file():
            raise ValueError(f"{sim_dir / name} is missing: rerun simulate")
    path, dtype = sim_dir / "series.npy", np.dtype(Model(cfg.model).site.dtype)
    series, shape = np.load(path), (cfg.replicas, cfg.grid_samples, cfg.n)
    if series.shape != shape:
        raise ValueError(f"{path} has shape {series.shape}, not the "
                         f"(replicas, grid_samples, n) = {shape} in meta.json")
    if series.dtype != dtype:
        raise ValueError(f"{path} holds {series.dtype} values, not the {dtype} of a "
                         f"{cfg.model} run")
    stats = OccupationStats(
        n_sites=cfg.n,
        model=cfg.model,
        duration=acc["duration"],
        mean_acc=np.array(acc["mean_acc"]),
        second_acc=np.array(acc["second_acc"]),
        series=list(series),
        autocorr_times=list(taus),
    )
    return cfg, stats


def cmd_compare(cfg: RunConfig, variant: str) -> int:
    sim_dir = Path(cfg.sim_dir)
    if not (sim_dir / "meta.json").exists():
        raise ValueError(f"no simulation output at {sim_dir}")
    sim_cfg, stats = _load_sim_dir(sim_dir)
    spec = MixtureSpec(sim_cfg.chain_params(), sim_cfg.model)
    rep = _read_profile(sim_dir, stats, spec)
    n = spec.params.n
    site_level = cfg.level / n  # Bonferroni across sites
    ess = sum(effective_sample_size(s.T, tau)  # per site, over replicas
              for s, tau in zip(stats.series, stats.autocorr_times))
    gof_rows = []
    all_pass = True
    any_inconclusive = False
    for x in range(1, n + 1):
        # Both tests count site x's values over every replica, checked here
        # to hold a single site's copy at a time.
        data = np.concatenate([s[:, x - 1] for s in stats.series])
        if not (data.min() >= 0 and data.max() < math.inf):  # NaN fails both
            raise ValueError(f"{sim_dir / 'series.npy'}: site {x} holds a negative or "
                             "non-finite value")
        if spec.model is Model.DISCRETE:
            pmf = lambda vals: marginal_pmf_discrete(spec, x, vals)
            g = chi_square_discrete(np.bincount(data), pmf, ess[x - 1])
        else:
            grid = np.linspace(0.0, float(data.max()) * 1.001 + 1e-12, 1025)
            cdf_grid = marginal_cdf_continuous(spec, x, grid)
            g = ks_continuous(data, lambda t: np.interp(t, grid, cdf_grid), ess[x - 1])
        ok = g.passed(site_level)
        all_pass &= ok or g.inconclusive
        any_inconclusive |= g.inconclusive
        gof_rows.append((x, g.name, g.statistic, g.dof, float(g.effective_n),
                         g.p_value, ok, g.bins_note))
    outdir = _resolve_outdir(cfg)  # only now: a run compare cannot use leaves no directory
    _write_csv(
        outdir / "gof.csv",
        ["site", "test", "statistic", "dof", "effective_n", "p_value",
         "passed", "note"],
        gof_rows,
    )
    _write_profile(outdir, rep, prefix="compare_")
    _write_meta(outdir, cfg, variant, {"autocorr_series": 0})  # every time is simulate's
    z_ok = rep.max_abs_z < 4.0
    print(f"compare: max|z| = {rep.max_abs_z:.2f}, GOF pass = {all_pass}",
          file=sys.stderr)
    if any_inconclusive and all_pass and z_ok:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if (all_pass and z_ok) else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parser(annotation):
    """str -> value converter for a RunConfig field: its type, or its non-None type."""
    if typing.get_origin(annotation) is tuple:
        return _parse_sizes
    return next((a for a in typing.get_args(annotation) if a is not type(None)), annotation)


_PARSERS = {name: _parser(tp) for name, tp in typing.get_type_hints(RunConfig).items()
            if name != "command"}

_SIMULATE = ("model", "n", "seed", "t_max", "burn_in", "replicas", "workers", "grid_samples")
_SAMPLE = ("model", "n", "seed", "samples")

# The RunConfig fields each run reads, besides ``out``: per command, then per
# the variant ``_variant`` picks (the chain model, or the verify check).  A
# subcommand has a flag for each field one of its variants reads, and a run's
# meta.json records exactly its variant's fields.
READS = {
    "simulate": {"discrete": (*_SIMULATE, "beta_a", "beta_b"),
                 "continuous": (*_SIMULATE, "t_a", "t_b", "epsilon")},
    "sample-exact": {"discrete": (*_SAMPLE, "beta_a", "beta_b"),
                     "continuous": (*_SAMPLE, "t_a", "t_b")},
    "verify": {"direct check": ("suite", "n", "beta_a", "beta_b", "truncation", "candidate",
                                "tol"),
               "telescoping": ("suite", "sizes", "mc_samples", "seed", "tol"),
               "equilibrium": ("suite", "tol"),
               "other suites": ("suite",)},
    "compare": {"goodness of fit": ("sim_dir", "level")},
}

# A field's flag is --name-with-dashes unless named here.
_FLAGS = {"truncation": "--k", "sim_dir": "--sim"}
_ARGUMENTS = {
    "model": {"choices": ["discrete", "continuous"]},
    "epsilon": {"help": "jump-size cutoff (continuous)"},
    "suite": {"choices": sorted(SUITES) + ["all"]},
    "truncation": {"help": "box truncation for the direct balance check"},
    "sizes": {"help": "comma-separated chain sizes"},
    "mc_samples": {"help": f"Monte Carlo draws for each size above {QUADRATURE_MAX_SITES}, "
                           f"at least {LEAST_MC_SAMPLES}, required for such a size; smaller "
                           "sizes run by quadrature and do not read it"},
    "candidate": {"choices": ["mixture", "product-geometric", "product-marginals"]},
    "sim_dir": {"required": True},
    "out": {"help": f"output directory (default: ${ENV_OUTDIR} or the working directory)"},
}
_HELP = {
    "simulate": "run trajectories and write occupation stats",
    "sample-exact": "draw from the exact stationary law",
    "verify": "run identity/stationarity checks",
    "compare": "test saved simulation output against the exact law",
}


def _flag(name: str) -> str:
    return _FLAGS.get(name, "--" + name.replace("_", "-"))


def _variant(cfg: RunConfig, given: set[str]) -> str:
    """The key of ``READS[cfg.command]`` that says what this run does, given
    the fields set by flag or file: ``verify --suite stationarity`` runs one
    direct balance check when --n, --k or --candidate is given, else the suite."""
    if cfg.command == "verify":
        if cfg.suite == "stationarity" and given & {"n", "truncation", "candidate"}:
            return "direct check"
        return cfg.suite if cfg.suite in READS["verify"] else "other suites"
    if cfg.command == "compare":
        return "goodness of fit"
    return Model(cfg.model).value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drivenchain",
        description="Simulate boundary-driven chains and verify their exact "
                    "stationary mixtures.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, variants in READS.items():
        p = sub.add_parser(command, help=_HELP[command])
        names = dict.fromkeys(f for fields in variants.values() for f in fields)
        for name in (*names, "out"):
            p.add_argument(_flag(name), dest=name, type=_PARSERS[name],
                           **_ARGUMENTS.get(name, {}))
        p.add_argument("--config", type=str, help="key=value config file; flags win")
    return ap


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def resolve_config(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """The run's configuration and the names of the fields a file or flag set."""
    cfg = RunConfig(command=args.command)
    given = set()
    file_path = getattr(args, "config", None)
    if file_path:
        for key, value in _read_config_file(file_path).items():
            if key not in _PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, _PARSERS[key](value))
            given.add(key)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        setattr(cfg, key, value)
        given.add(key)
    return cfg, given


# Least value of each number a run can honour; a standard error needs two
# samples, a Monte Carlo verdict LEAST_MC_SAMPLES.  NaN is below every least value.
_LEAST = {"replicas": 1, "workers": 1, "grid_samples": 2, "samples": 2,
          "mc_samples": LEAST_MC_SAMPLES, "seed": 0, "tol": 0.0}


def check_options(cfg: RunConfig, given: set[str]) -> str:
    """The run's ``READS`` variant, or a ValueError if an option set by flag
    or file is one the run does not read (telescoping reads --tol only for a
    quadrature size and --seed only for a Monte Carlo one), if a Monte Carlo
    size has no --mc-samples, or if an option holds a value no run can honour."""
    variant = _variant(cfg, given)
    read = set(READS[cfg.command][variant])
    if variant == "telescoping":  # quadrature judges at --tol, Monte Carlo (at 4 SE) draws --seed
        monte_carlo = {not uses_quadrature(n, None) for n in cfg.sizes}
        read -= {name for name, mc in (("tol", False), ("seed", True)) if mc not in monte_carlo}
    unread = sorted(given - read - {"out"})
    if unread:
        raise ValueError(f"{cfg.command} ({variant}) does not use "
                         + ", ".join(map(_flag, unread)))
    for name in given & _LEAST.keys():
        if not getattr(cfg, name) >= _LEAST[name]:
            raise ValueError(f"{_flag(name)} must be at least {_LEAST[name]}, "
                             f"got {getattr(cfg, name)}")
    # An infinite tolerance certifies nothing, an infinite window never ends,
    # and no site fires above an infinite cutoff.
    for name in given & {"tol", "t_max", "burn_in", "epsilon"}:
        if not math.isfinite(getattr(cfg, name)):
            raise ValueError(f"{_flag(name)} must be finite, got {getattr(cfg, name)}")
    if "epsilon" in given:  # read only by an energy run, whose histograms end at 50 T_B
        check_epsilon(cfg.epsilon, cfg.t_b, _flag("epsilon"))
    if not 0.0 < cfg.level < 1.0:
        raise ValueError(f"--level must lie in (0, 1), got {cfg.level}")
    if variant == "telescoping" and True in monte_carlo and cfg.mc_samples is None:
        raise ValueError(f"a size above {QUADRATURE_MAX_SITES} sites runs by Monte Carlo only: "
                         "pass --mc-samples")
    return variant


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, given = resolve_config(args)
        variant = check_options(cfg, given)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handlers = {
        "simulate": cmd_simulate,
        "sample-exact": cmd_sample_exact,
        "verify": cmd_verify,
        "compare": cmd_compare,
    }
    try:
        return handlers[cfg.command](cfg, variant)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
