"""Command-line front end: simulate, sample-exact, verify, compare.

Configuration comes from flags, optionally seeded by a ``key=value`` config
file (flags win).  A config-file key the command has no flag for, and a
``verify`` option the chosen check would not use, are configuration errors.
Every run writes a ``meta.json`` carrying the full configuration, seed, and
library versions, so any output is reproducible from its own metadata;
wall-clock timings go to stderr only, keeping all written files byte-stable
across reruns.

Exit codes are stable API: 0 success/pass, 1 runtime error, 2 configuration
error, 3 verification or comparison failure, 4 inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .continuous_sim import default_epsilon, energy_histogram, simulate_continuous
from .core import ChainParams
from .discrete_sim import simulate
from .measure import (
    MixtureSpec,
    Model,
    marginal_cdf_continuous,
    marginal_pmf_discrete,
    moment_profile,
    sample_exact_continuous,
    sample_exact_discrete,
)
from .occupation import DEFAULT_GRID_SAMPLES, IntHistogram, OccupationStats
from .stats import (
    ProfileReport,
    chi_square_discrete,
    effective_sample_size,
    ks_continuous,
    profile_report,
)
from .verify import (
    DIRECT_DEFAULTS,
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
    mc_samples: int = 10_000_000
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
    slow call per value, and a float32 would lose digits.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_meta(outdir: Path, cfg: RunConfig, extra: dict | None = None) -> None:
    meta = {
        "config": asdict(cfg),
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
    model, params, t_max, burn_in, epsilon, grid_samples, child_seq = args
    rng = np.random.Generator(np.random.PCG64(child_seq))
    if model == "discrete":
        return simulate(params, t_max, burn_in=burn_in, rng=rng,
                        grid_samples=grid_samples)
    return simulate_continuous(params, t_max, epsilon=epsilon, burn_in=burn_in,
                               rng=rng, grid_samples=grid_samples)


def _run_replicas(cfg: RunConfig, params: ChainParams) -> OccupationStats:
    burn_in = cfg.burn_in if cfg.burn_in is not None else 0.1 * cfg.t_max
    epsilon = cfg.epsilon
    if cfg.model == "continuous" and epsilon is None:
        epsilon = default_epsilon(params)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)
    jobs = [
        (cfg.model, params, cfg.t_max, burn_in, epsilon, cfg.grid_samples, c)
        for c in children
    ]
    workers = cfg.workers or os.cpu_count() or 1
    if cfg.replicas == 1 or workers == 1:
        results = [_replica_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, cfg.replicas)) as pool:
            results = list(pool.map(_replica_job, jobs))
    merged = results[0]
    for r in results[1:]:
        merged = merged.merge(r)
    merged.extra["replica_streams"] = list(range(cfg.replicas))
    if cfg.model == "continuous":
        merged.extra["epsilon"] = epsilon
    return merged


def _write_histograms(outdir: Path, stats: OccupationStats) -> None:
    rows = []
    for x, h in enumerate(stats.hists, start=1):
        if isinstance(h, IntHistogram):
            values, weights = h.as_arrays()
            for v, w in zip(values.tolist(), weights.tolist()):
                if w > 0.0:
                    rows.append((x, v, "", w))
        else:
            edges, weights = h.edges().tolist(), np.asarray(h.weights).tolist()
            rows.append((x, "-inf", edges[0], weights[0]))
            for i in range(h.n_bins):
                if weights[i + 1] > 0.0:
                    rows.append((x, edges[i], edges[i + 1], weights[i + 1]))
            rows.append((x, edges[-1], "inf", weights[-1]))
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
    and the z-score of the read errors give; a missing or mismatched file is
    a ValueError, never a reason to recompute the report.
    """
    tables, errors = [], []
    for name, header in (("profile.csv", _PROFILE_HEADER),
                         ("covariance.csv", _COVARIANCE_HEADER)):
        path = sim_dir / name
        if not path.is_file():
            raise ValueError(f"{path} is missing: rerun simulate")
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
    rep = ProfileReport.from_errors(stats, spec, *errors)
    for (path, rows), expected in zip(tables, (rep.mean_rows(), rep.cov_rows())):
        for line, (row, want) in enumerate(zip(rows, expected), start=2):
            want = [str(v) for v in want]
            if row != want:
                raise ValueError(f"{path} line {line} reads {','.join(row)}, "
                                 f"the run in {sim_dir} gives {','.join(want)}")
    return rep


def _run_counters(stats: OccupationStats) -> dict:
    """The run's deterministic diagnostics (never its wall-clock rate)."""
    counters = {"max_resync_drift": stats.extra["max_resync_drift"]}
    if stats.model == "continuous":
        for key in ("acceptance_a", "acceptance_b"):
            counters[key] = stats.per_replica(key)
    return counters


def cmd_simulate(cfg: RunConfig) -> int:
    try:
        params = cfg.chain_params()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = _resolve_outdir(cfg)
    t0 = time.perf_counter()
    stats = _run_replicas(cfg, params)
    t1 = time.perf_counter()
    rep = profile_report(stats, MixtureSpec(params, Model(cfg.model)))
    t2 = time.perf_counter()
    _write_histograms(outdir, stats)
    _write_profile(outdir, rep)
    np.save(outdir / "series.npy", np.stack(stats.series))
    _write_meta(outdir, cfg, {
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
        "replica_streams": stats.extra.get("replica_streams", [0]),
        "epsilon": stats.extra.get("epsilon"),
        "autocorr_series": rep.notes["autocorr_series"],
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

def cmd_sample_exact(cfg: RunConfig) -> int:
    try:
        params = cfg.chain_params()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = _resolve_outdir(cfg)
    model = Model(cfg.model)
    spec = MixtureSpec(params, model)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    if model is Model.DISCRETE:
        draws = sample_exact_discrete(spec, rng, size=cfg.samples)
    else:
        draws = sample_exact_continuous(spec, rng, size=cfg.samples)
    _write_csv(
        outdir / "samples.csv",
        [f"site_{x}" for x in range(1, cfg.n + 1)],
        draws.tolist(),
    )
    exact = moment_profile(spec)
    emp_mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(cfg.samples)
    z = (emp_mean - exact.means) / se
    _write_csv(
        outdir / "moments.csv",
        ["site", "emp_mean", "se", "exact_mean", "z"],
        zip(range(1, cfg.n + 1), emp_mean.tolist(), se.tolist(),
            exact.means.tolist(), z.tolist()),
    )
    _write_meta(outdir, cfg)
    print(f"sample-exact: {cfg.samples} draws -> {outdir}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _direct_stationarity(cfg: RunConfig) -> bool:
    """Whether ``verify --suite stationarity`` runs one direct balance check, not the suite."""
    return cfg.suite == "stationarity" and (
        cfg.truncation is not None or cfg.candidate != "mixture" or cfg.n in DIRECT_DEFAULTS)


def _check_verify_options(cfg: RunConfig, given: set[str]) -> None:
    """ValueError if an option was given that the chosen check would not use."""
    if _direct_stationarity(cfg):
        honoured = {"n", "beta_a", "beta_b", "truncation", "candidate", "tol"}
    else:
        honoured = {"telescoping": {"sizes", "mc_samples", "seed", "tol"},
                    "equilibrium": {"tol"}}.get(cfg.suite, set())
    ignored = sorted(given - honoured - {"suite", "out"})
    if ignored:
        flags = ", ".join("--" + name.replace("_", "-") for name in ignored)
        raise ValueError(f"verify --suite {cfg.suite} does not use {flags}")


def cmd_verify(cfg: RunConfig) -> int:
    outdir = _resolve_outdir(cfg)
    reports = []
    try:
        if _direct_stationarity(cfg):
            params = ChainParams(n=cfg.n, beta_a=cfg.beta_a, beta_b=cfg.beta_b)
            truncation, tol = DIRECT_DEFAULTS[min(params.n, max(DIRECT_DEFAULTS))]
            reports.append(check_stationarity_direct_discrete(
                params, truncation if cfg.truncation is None else cfg.truncation,
                tol if cfg.tol is None else cfg.tol, candidate=cfg.candidate))
        else:
            kwargs = {} if cfg.tol is None else {"tol": cfg.tol}
            if cfg.suite == "telescoping":
                kwargs.update(sizes=cfg.sizes, mc_samples=cfg.mc_samples, seed=cfg.seed)
            reports.extend(run_suite(cfg.suite, **kwargs))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with open(outdir / "reports.jsonl", "w") as fh:
        for r in reports:
            fh.write(r.to_json())
            fh.write("\n")
    _write_meta(outdir, cfg)
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

def _bin_midpoint(lo: float, hi: float) -> float:
    return float(np.sqrt(lo * hi))  # geometric midpoint of a log-spaced bin


def _load_sim_dir(sim_dir: Path) -> tuple[RunConfig, OccupationStats]:
    with open(sim_dir / "meta.json") as fh:
        meta = json.load(fh)
    raw = dict(meta["config"])
    raw["sizes"] = tuple(raw.get("sizes", RunConfig.sizes))
    cfg = RunConfig(**raw)
    acc = meta["accumulators"]
    series = np.load(sim_dir / "series.npy")
    params = cfg.chain_params()
    n = cfg.n
    if cfg.model == "discrete":
        hists = [IntHistogram() for _ in range(n)]
    else:
        eps = meta.get("epsilon") or default_epsilon(params)
        hists = [energy_histogram(params, eps) for _ in range(n)]
    with open(sim_dir / "histograms.csv") as fh:
        rd = csv.reader(fh)
        next(rd)
        for row in rd:
            site = int(row[0]) - 1
            if cfg.model == "discrete":
                hists[site].add(int(row[1]), float(row[3]))
            else:
                lo = row[1]
                w = float(row[3])
                if lo == "-inf":
                    hists[site].weights[0] += w
                elif row[2] == "inf":
                    hists[site].weights[-1] += w
                else:
                    hists[site].add(_bin_midpoint(float(lo), float(row[2])), w)
    stats = OccupationStats(
        n_sites=n,
        model=cfg.model,
        duration=acc["duration"],
        event_count=acc["event_count"],
        mean_acc=np.array(acc["mean_acc"]),
        second_acc=np.array(acc["second_acc"]),
        hists=hists,
        series=[series[i] for i in range(series.shape[0])],
        series_dt=acc["series_dt"],
        injected_a=acc["injected_a"],
        extracted_a=acc["extracted_a"],
        injected_b=acc["injected_b"],
        extracted_b=acc["extracted_b"],
    )
    return cfg, stats


def cmd_compare(cfg: RunConfig) -> int:
    sim_dir = Path(cfg.sim_dir)
    if not (sim_dir / "meta.json").exists():
        print(f"config error: no simulation output at {sim_dir}", file=sys.stderr)
        return EXIT_CONFIG
    sim_cfg, stats = _load_sim_dir(sim_dir)
    params = sim_cfg.chain_params()
    model = Model(sim_cfg.model)
    spec = MixtureSpec(params, model)
    rep = _read_profile(sim_dir, stats, spec)
    outdir = _resolve_outdir(cfg)
    n = params.n
    site_level = cfg.level / n  # Bonferroni across sites
    ess = sum(effective_sample_size(s.T) for s in stats.series)  # per site, over replicas
    gof_rows = []
    all_pass = True
    any_inconclusive = False
    for x in range(1, n + 1):
        if model is Model.DISCRETE:
            pmf = lambda vals: marginal_pmf_discrete(spec, x, vals)
            g = chi_square_discrete(stats.hists[x - 1], pmf, ess[x - 1])
        else:
            data = np.concatenate([s[:, x - 1] for s in stats.series])
            grid = np.linspace(0.0, float(data.max()) * 1.001 + 1e-12, 1025)
            cdf_grid = marginal_cdf_continuous(spec, x, grid)
            g = ks_continuous(data, lambda t: np.interp(t, grid, cdf_grid), ess[x - 1])
        ok = g.passed(site_level)
        all_pass &= ok or g.inconclusive
        any_inconclusive |= g.inconclusive
        gof_rows.append((x, g.name, g.statistic, g.dof, float(g.effective_n),
                         g.p_value, ok, g.bins_note))
    _write_csv(
        outdir / "gof.csv",
        ["site", "test", "statistic", "dof", "effective_n", "p_value",
         "passed", "note"],
        gof_rows,
    )
    _write_profile(outdir, rep, prefix="compare_")
    _write_meta(outdir, cfg, {"autocorr_series": n * len(stats.series),
                              "profile_source": "profile.csv"})
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


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, help="output directory "
                   f"(default: ${ENV_OUTDIR} or the working directory)")
    p.add_argument("--config", type=str, help="key=value config file; flags win")


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["discrete", "continuous"])
    p.add_argument("--n", type=int)
    p.add_argument("--beta-a", dest="beta_a", type=float)
    p.add_argument("--beta-b", dest="beta_b", type=float)
    p.add_argument("--t-a", dest="t_a", type=float)
    p.add_argument("--t-b", dest="t_b", type=float)
    p.add_argument("--seed", type=int)
    _add_output_flags(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drivenchain",
        description="Simulate boundary-driven chains and verify their exact "
                    "stationary mixtures.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run trajectories and write occupation stats")
    _add_chain_flags(p)
    p.add_argument("--epsilon", type=float, help="jump-size cutoff (continuous)")
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--burn-in", dest="burn_in", type=float)
    p.add_argument("--replicas", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--grid-samples", dest="grid_samples", type=int)

    p = sub.add_parser("sample-exact", help="draw from the exact stationary law")
    _add_chain_flags(p)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("verify", help="run identity/stationarity checks")
    _add_chain_flags(p)
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--k", dest="truncation", type=int,
                   help="box truncation for the direct balance check")
    p.add_argument("--tol", type=float)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--sizes", type=_parse_sizes, help="comma-separated chain sizes")
    p.add_argument("--candidate",
                   choices=["mixture", "product-geometric", "product-marginals"])

    p = sub.add_parser("compare", help="test saved simulation output against the exact law")
    _add_output_flags(p)
    p.add_argument("--sim", dest="sim_dir", type=str, required=True)
    p.add_argument("--level", type=float)
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


def _parser(annotation):
    """str -> value converter for a RunConfig field: its type, or its non-None type."""
    if typing.get_origin(annotation) is tuple:
        return _parse_sizes
    return next((a for a in typing.get_args(annotation) if a is not type(None)), annotation)


_PARSERS = {name: _parser(tp) for name, tp in typing.get_type_hints(RunConfig).items()}


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


# Least value of each count a run can honour; a standard error needs two samples.
_LEAST = {"replicas": 1, "workers": 1, "grid_samples": 2, "samples": 2}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, given = resolve_config(args)
        # args holds a field for every flag of the subcommand, given or not
        foreign = sorted(given - (set(vars(args)) - {"command", "config"}))
        if foreign:
            raise ValueError(f"{args.command} has no option for config key(s) {foreign}")
        for name in given & _LEAST.keys():
            if getattr(cfg, name) < _LEAST[name]:
                raise ValueError(f"--{name.replace('_', '-')} must be at least {_LEAST[name]}")
        if not 0.0 < cfg.level < 1.0:
            raise ValueError(f"--level must lie in (0, 1), got {cfg.level}")
        if cfg.command == "verify":
            _check_verify_options(cfg, given)
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
        return handlers[cfg.command](cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
