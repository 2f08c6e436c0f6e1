"""Workload process: runs one drivenchain workload and writes its numbers as JSON.

Started by ``run.py`` in a fresh interpreter, once per mode:

* ``probe``   - import everything a workload needs, report when ready, exit;
* ``plain``   - run workload iterations for ``--seconds`` untraced;
* ``traced``  - the same with spans at every layer boundary (``tracing.py``);
* ``profile`` - cProfile over the ``simulate`` calls only (``profiled.py``);
* ``sweeps``  - the scaling sweeps (``sweeps.py``).

The package is driven only through ``drivenchain.cli.main`` and the public
``measure`` functions.  Each iteration draws its simulator, sampler and Monte
Carlo seeds from ``SeedSequence([seed, iteration])``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from drivenchain import cli, measure  # noqa: E402
from drivenchain.core import ChainParams  # noqa: E402
from drivenchain.occupation import OccupationStats  # noqa: E402

READY = time.monotonic()

BETAS = ["--beta-a", "0.5", "--beta-b", "0.75"]
TEMPS = ["--t-a", "1", "--t-b", "2"]

# Simulate commands per iteration, each followed by ``compare``.  ``gate``
# says whether compare's statistical verdict counts as an operation that can
# fail: the n=65 run starts empty and is far from stationary by t_max, so
# compare rejects it by design and the verdict is only recorded.
SIM_WORKLOADS = {
    "neq-n5": {
        "gate": True,
        "sims": [
            ["--model", "discrete", "--n", "5", *BETAS, "--t-max", "5000"],
            ["--model", "continuous", "--n", "5", *TEMPS, "--t-max", "2000"],
        ],
        "smoke": {"--t-max": "60"},
    },
    "neq-n65": {
        "gate": False,
        "sims": [
            ["--model", "discrete", "--n", "65", *BETAS, "--t-max", "300",
             "--grid-samples", "4096"],
        ],
        "smoke": {"--t-max": "20", "--grid-samples": "512"},
    },
    "replicas-n5": {
        "gate": True,
        "sims": [
            ["--model", "discrete", "--n", "5", *BETAS, "--t-max", "500",
             "--replicas", "16", "--workers", "2", "--grid-samples", "16384"],
        ],
        "smoke": {"--t-max": "40", "--replicas": "4", "--grid-samples": "1024"},
    },
}

EXACT_LAW = {
    "stationarity_k": 10,
    "telescoping_sizes": "1,2,3,5",
    "telescoping_mc": 200_000,
    "density_sizes": (3, 4, 6),
    "density_mc": 200_000,
    "sample_n": 3,
    "samples": 100_000,
    "smoke": {"stationarity_k": 2, "telescoping_mc": 20_000, "density_mc": 20_000,
              "samples": 5_000},
}

WORKLOADS = (*SIM_WORKLOADS, "exact-law")

# Statistical verdicts.  The package's own rules (compare: GOF at level 0.01
# over the sites and every mean/covariance |z| < 4; sample-exact: every z < 4)
# reject 1-2% of compare calls on correct code at these run lengths, and a
# check of the benchmark makes about a thousand calls per workload, so their
# rejections are counted and reported, not failed.  An operation fails when
# the same statistics reject at a per-call level near 1e-6 (Bonferroni over
# about 1e4 calls): |z| >= 7 for compare, whose short-run z-scores are
# overdispersed (standard deviation up to 1.3), 5.5 for the independent
# draws of sample-exact, and any site's GOF p < 1e-7.  A 1.5x injection rate
# at one reservoir of neq-n5's discrete chain gives max|z| 9-11 and
# GOF p < 1e-20.
COMPARE_FAIL_Z = 7.0
COMPARE_FAIL_P = 1e-7
SAMPLE_FAIL_Z = 5.5

_REF_X = np.random.default_rng(0).standard_normal(1 << 14)


def reference_loop(rng=np.random.default_rng(0)) -> float:
    """Seconds for a fixed ~10 ms reference: an event-loop-like Python loop and an FFT.

    It uses no drivenchain code, so no change to the package can speed it up.
    Shared hosts drift in speed by tens of percent over seconds; a reference
    runs before every operation, after the last, and (untraced) inside long
    operations at the boundaries ``REFERENCE_POINTS`` names and at the grid
    samples of ``OBSERVED_SIMULATORS``.
    ``Runner.iteration`` divides the time between two references by their mean.
    """
    t0 = time.perf_counter()
    rand = rng.random
    cells = [0.0] * 8
    acc = 0.0
    for i in range(12_000):
        k = i & 7
        cells[k] += 0.5 * rand()
        acc += math.log(1.0 + cells[k])
    np.fft.irfft(np.fft.rfft(_REF_X))
    return time.perf_counter() - t0


# Calls inside long operations where an untraced run may sample the reference:
# each is made tens to thousands of times per operation, never per event.
REFERENCE_POINTS = (("cli", "profile_report"), ("cli", "effective_sample_size"),
                    ("verify", "mixture_density_discrete"))
REFERENCE_EVERY_S = 0.3
# Simulators ``cli`` imports: in-process calls get an observer, called at every
# grid sample of the trajectory, that may sample the reference too.
OBSERVED_SIMULATORS = ("simulate", "simulate_continuous")


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _apply(argv: list[str], overrides: dict[str, str]) -> list[str]:
    out = list(argv)
    for key, value in overrides.items():
        if key in out:
            out[out.index(key) + 1] = value
        else:
            out += [key, value]
    return out


class Hooks:
    """What the benchmark learns from inside the package, in every mode.

    Wraps ``OccupationStats.merge`` and the ``profile_report`` that ``cli``
    calls, so the stats of every replica a ``simulate`` command returns can
    be checked, and its event count and simulator busy time recorded.  Only
    scalars are kept, so no replica outlives the command.  The traced run
    adds the injection samplers, bytes written and verify report counts.
    """

    def __init__(self) -> None:
        self.command: dict | None = None
        self.sim_commands: list[dict] = []
        self.samplers: list = []
        self.bytes_written = 0
        self.verify_counts = {"reports": 0, "failed": 0, "inconclusive": 0}

    def install(self) -> None:
        merge = OccupationStats.merge
        report = cli.profile_report

        @functools.wraps(merge)
        def checked_merge(this, other):
            out = merge(this, other)
            cmd = self.command
            if cmd is not None:
                for st in (this, other):
                    if id(st) not in cmd["merged"]:
                        self._check_replica(st)
                cmd["merged"].add(id(out))
            return out

        @functools.wraps(report)
        def checked_report(st, spec):
            cmd = self.command
            if cmd is not None and cmd["events"] is None:
                if not cmd["merged"]:
                    self._check_replica(st)
                cmd.update(events=st.event_count, busy_s=st.wall_seconds,
                           model=st.model, n=st.n_sites)
            return report(st, spec)

        OccupationStats.merge = checked_merge
        cli.profile_report = checked_report

    def _check_replica(self, st) -> None:
        final = st.extra.get("final_eta", st.extra.get("final_z"))
        problems = []
        if final is None:
            problems.append("no final state in stats.extra")
        else:
            inflow = st.injected_a + st.injected_b - st.extracted_a - st.extracted_b
            mass = math.fsum(final)
            scale = max(1.0, st.injected_a + st.injected_b)
            exact = st.model == "discrete"
            if (inflow != mass) if exact else abs(inflow - mass) > 1e-9 * scale:
                problems.append(f"mass balance: injected-extracted={inflow!r}, final={mass!r}")
            if min(final) < 0:
                problems.append("negative final occupation")
        if any(float(np.min(s)) < 0 for s in st.series) or np.any(st.mean_acc < 0):
            problems.append("negative occupation in series or mean")
        for x, h in enumerate(st.hists, start=1):
            if abs(h.total() - st.duration) > 1e-9 * st.duration:
                problems.append(f"site {x}: histogram mass {h.total()!r} != duration {st.duration!r}")
                break
        self.command["replicas"].append(problems)


class Runner:
    """Runs commands and library calls, counting operations and failures."""

    def __init__(self, hooks: Hooks, smoke: bool) -> None:
        self.hooks = hooks
        self.smoke = smoke
        self.attempted = 0
        self.failures: list[str] = []
        self.own_rule: dict[str, list[int]] = {}  # check -> [rejections, calls]
        self.recorded: list[str] = []
        self.sim_wall = 0.0
        self.events = 0
        self.marks: list[tuple[float, float, float]] = []

    def tick(self) -> None:
        """Run the reference; operations are the stretches between two ticks."""
        t0 = time.perf_counter()
        ref = reference_loop()
        self.marks.append((t0, time.perf_counter(), ref))

    def install_reference_points(self) -> None:
        from drivenchain import verify
        owners = {"cli": cli, "verify": verify}
        for owner, attr in REFERENCE_POINTS:
            fn = getattr(owners[owner], attr)

            def sampled(*args, _fn=fn, **kwargs):
                self._maybe_tick()
                return _fn(*args, **kwargs)

            setattr(owners[owner], attr, functools.wraps(fn)(sampled))
        main = os.getpid()
        for attr in OBSERVED_SIMULATORS:
            fn = getattr(cli, attr)

            def observed(*args, _fn=fn, **kwargs):
                if os.getpid() == main:  # pool workers inherit this wrapper
                    kwargs["observers"] = (*kwargs.get("observers", ()), self._maybe_tick)
                return _fn(*args, **kwargs)

            setattr(cli, attr, functools.wraps(fn)(observed))

    def _maybe_tick(self, *_observed) -> None:
        if time.perf_counter() - self.marks[-1][1] > REFERENCE_EVERY_S:
            self.tick()

    def iteration(self, first: int) -> tuple[float, float]:
        """Wall time of the operations since mark ``first``, and the same in reference units."""
        self.tick()
        marks = self.marks[first:]
        wall = ref_units = 0.0
        for (_, end, ref), (start, _, ref_next) in zip(marks, marks[1:]):
            wall += start - end
            ref_units += (start - end) / (0.5 * (ref + ref_next))
        return wall, ref_units

    def ref_time(self, t0: float, t1: float) -> float:
        return sum(end - start for start, end, _ in self.marks if t0 <= start < t1)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def verdict(self, check: str, own_ok: bool, ok: bool, what: str, gate: bool) -> None:
        """A statistical test: ``own_ok`` is the package's own rule, only counted;
        ``ok`` the per-call level of ``COMPARE_FAIL_*``/``SAMPLE_FAIL_Z``, a check when gated."""
        tally = self.own_rule.setdefault(check, [0, 0])
        tally[0] += not own_ok
        tally[1] += 1
        if gate:
            self.check(ok, f"statistical: {what}")
        else:
            self.recorded.append(f"{check}: {'pass' if own_ok else 'reject'} (not gated)")

    def cli(self, argv: list[str]) -> int:
        self.tick()
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main(argv)

    def simulate(self, argv: list[str], out: Path) -> None:
        replicas = int(_flag(argv, "--replicas", "1"))
        workers = min(int(_flag(argv, "--workers", "1")), replicas)
        cmd = {"merged": set(), "replicas": [], "events": None, "busy_s": 0.0,
               "model": _flag(argv, "--model"), "n": int(_flag(argv, "--n")),
               "workers": workers,
               "grid_samples": int(_flag(argv, "--grid-samples", str(1 << 16)))}
        self.hooks.command = cmd
        t0 = time.perf_counter()
        try:
            rc = self.cli(["simulate", *argv, "--out", str(out)])
        finally:
            t1 = time.perf_counter()
            self.sim_wall += t1 - t0 - self.ref_time(t0, t1)
            self.hooks.command = None
        self.check(rc == 0, f"simulate {' '.join(argv)} exited {rc}")
        if rc != 0:
            return
        self.events += cmd["events"] or 0
        self.hooks.sim_commands.append({k: cmd[k] for k in (
            "model", "n", "events", "busy_s", "workers", "grid_samples")} | {"replicas": replicas})
        self.check(len(cmd["replicas"]) == replicas,
                   f"saw {len(cmd['replicas'])} of {replicas} replica stats")
        for i, problems in enumerate(cmd["replicas"]):
            self.check(not problems, f"replica {i}: {'; '.join(problems)}")

    def compare(self, sim_dir: Path, out: Path, gate: bool) -> None:
        rc = self.cli(["compare", "--sim", str(sim_dir), "--out", str(out)])
        self.check(rc in (0, 3, 4), f"compare exited {rc}")
        if rc not in (0, 3, 4):
            return
        z = max(abs(float(row["z"])) for name in ("compare_profile.csv", "compare_covariance.csv")
                for row in csv.DictReader(open(out / name)))
        p_values = [float(row["p_value"]) for row in csv.DictReader(open(out / "gof.csv"))]
        p = min((v for v in p_values if not math.isnan(v)), default=1.0)  # nan: inconclusive
        self.verdict("compare", rc == 0, z < COMPARE_FAIL_Z and p >= COMPARE_FAIL_P,
                     f"compare {sim_dir.name}: exit {rc}, max|z|={z:.2f}, min GOF p={p:.3g}",
                     gate and not self.smoke)

    def verify(self, argv: list[str], out: Path, expect) -> None:
        rc = self.cli(["verify", *argv, "--out", str(out)])
        self.check(rc == 0, f"verify {' '.join(argv)} exited {rc}")
        try:
            reports = [json.loads(line) for line in open(out / "reports.jsonl")]
        except OSError as exc:
            self.check(False, f"verify {' '.join(argv)}: {exc}")
            return
        counts = self.hooks.verify_counts
        counts["reports"] += len(reports)
        counts["failed"] += sum(not r["passed"] and not r["inconclusive"] for r in reports)
        counts["inconclusive"] += sum(bool(r["inconclusive"]) for r in reports)
        self.check(bool(reports) and all(r["passed"] for r in reports),
                   f"verify {' '.join(argv)}: not every report passed")
        if expect is not None:
            self.check(expect(reports), f"verify {' '.join(argv)}: recorded n/truncation differ from the request")

    def sample_exact(self, argv: list[str], out: Path) -> None:
        rc = self.cli(["sample-exact", *argv, "--out", str(out)])
        self.check(rc == 0, f"sample-exact exited {rc}")
        if rc == 0:
            rows = list(open(out / "moments.csv"))[1:]
            worst = max(abs(float(r.split(",")[4])) for r in rows)
            self.verdict("sample-exact", worst < 4.0, worst < SAMPLE_FAIL_Z,
                         f"sample-exact max|z|={worst:.2f}", not self.smoke)

    def density(self, fn, spec, config, **kwargs) -> None:
        self.tick()
        try:
            est = fn(spec, config, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed library call is a failed operation
            self.check(False, f"{fn.__name__} n={len(config)}: {exc!r}")
            return
        n = len(config)
        want = "quadrature" if n <= measure.QUADRATURE_MAX_SITES else "monte-carlo"
        ok = (est.method == want and math.isfinite(est.value) and est.value > 0.0
              and 0.0 <= est.error < est.value)
        self.check(ok, f"{fn.__name__} n={n}: {est}")


def _iteration_seed(seed: int, i: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, i])


def run_sim_iteration(run: Runner, name: str, seed_seq, work: Path) -> None:
    spec = SIM_WORKLOADS[name]
    seeds = seed_seq.generate_state(len(spec["sims"]))
    for j, argv in enumerate(spec["sims"]):
        if run.smoke:
            argv = _apply(argv, spec["smoke"])
        sim_dir = work / f"sim{j}"
        run.simulate([*argv, "--seed", str(int(seeds[j]))], sim_dir)
        run.compare(sim_dir, work / f"cmp{j}", spec["gate"])


def run_exact_iteration(run: Runner, seed_seq, work: Path) -> None:
    cfg = {**EXACT_LAW, **(EXACT_LAW["smoke"] if run.smoke else {})}
    k = cfg["stationarity_k"]
    sizes = cfg["telescoping_sizes"]
    run.verify(["--suite", "stationarity", "--n", "2", "--k", str(k)], work / "stat",
               lambda reps: len(reps) == 1 and reps[0]["params"]["truncation"] == k
               and reps[0]["notes"]["n"] == 2)
    run.verify(["--suite", "telescoping", "--sizes", sizes,
                "--mc-samples", str(cfg["telescoping_mc"])], work / "tele",
               lambda reps: {r["params"]["n"] for r in reps} == {int(s) for s in sizes.split(",")})
    run.verify(["--suite", "identities"], work / "ident", None)
    run.verify(["--suite", "equilibrium"], work / "equil", None)
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    for n in cfg["density_sizes"]:
        kwargs = {} if n <= measure.QUADRATURE_MAX_SITES else {
            "mc_samples": cfg["density_mc"], "seed": int(rng.integers(2**31))}
        disc = measure.MixtureSpec(ChainParams(n=n, beta_a=0.5, beta_b=0.75), measure.Model.DISCRETE)
        cont = measure.MixtureSpec(ChainParams(n=n, t_a=1.0, t_b=2.0), measure.Model.CONTINUOUS)
        run.density(measure.mixture_density_discrete, disc,
                    np.rint(measure.moment_profile(disc).means).astype(int), **kwargs)
        run.density(measure.mixture_density_continuous, cont,
                    measure.moment_profile(cont).means, **kwargs)
    run.sample_exact(["--model", "discrete", "--n", str(cfg["sample_n"]), *BETAS,
                      "--samples", str(cfg["samples"]), "--seed", str(int(rng.integers(2**31)))],
                     work / "sample")


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_workload(name: str, seed: int, seconds: float, work: Path, smoke: bool,
                 tracer=None) -> dict:
    hooks = Hooks()
    hooks.install()
    if tracer is not None:
        import tracing
        tracing.install(tracer, hooks)
    run = Runner(hooks, smoke)
    if tracer is None:
        run.install_reference_points()
    min_iter = 1 if smoke else 3
    walls, wall_refs, sim_walls, events, spans = [], [], [], [], []
    first_call = None
    start = time.perf_counter()
    i = 0
    while True:
        it_dir = work / f"it{i}"
        it_dir.mkdir(parents=True)
        seed_seq = _iteration_seed(seed, i)
        run.sim_wall, run.events = 0.0, 0
        if first_call is None:
            first_call = time.monotonic()
        first_mark = len(run.marks)  # the iteration's first operation ticks first
        t0 = time.perf_counter()
        if name == "exact-law":
            run_exact_iteration(run, seed_seq, it_dir)
        else:
            run_sim_iteration(run, name, seed_seq, it_dir)
        t1 = time.perf_counter()
        wall, wall_ref = run.iteration(first_mark)
        walls.append(wall)
        wall_refs.append(wall_ref)
        spans.append((t0, t1, wall))
        sim_walls.append(run.sim_wall)
        events.append(run.events)
        hooks.bytes_written += _dir_bytes(it_dir)
        shutil.rmtree(it_dir)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= min_iter and elapsed + float(np.median(walls)) > seconds:
            break
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "workload": name,
        "seed": seed,
        "ready": READY,
        "first_call": first_call,
        "first_ref": float(np.median([ref for _, _, ref in run.marks[:3]])),
        "iterations": len(walls),
        "walls": walls,
        "wall_refs": wall_refs,
        "refs": [ref for _, _, ref in run.marks],
        "sim_walls": sim_walls,
        "events": events,
        "peak_rss_mb": usage / 1024.0,
        "attempted": run.attempted,
        "failures": run.failures,
        "own_rule": run.own_rule,
        "recorded": run.recorded,
    }
    if tracer is not None:
        import tracing
        result["layers"] = tracing.layer_metrics(tracer, hooks, spans)
        result["unwrapped"] = tracer.missing
    return result


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["probe", "plain", "traced", "profile", "sweeps"])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.mode == "probe":
        result = {"ready": READY, "ref": float(np.median([reference_loop() for _ in range(3)]))}
    elif args.mode == "profile":
        import profiled
        result = profiled.run(args.workload, args.seed, args.work, args.smoke)
    elif args.mode == "sweeps":
        import sweeps
        result = sweeps.run(args.seed, args.work, args.smoke)
    else:
        tracer = None
        if args.mode == "traced":
            import tracing
            tracer = tracing.Tracer()
        result = run_workload(args.workload, args.seed, args.seconds, args.work,
                              args.smoke, tracer)
        if tracer is not None:
            tracer.save(args.result.with_suffix(".spans.npz"))
    result["env"] = environment()
    args.result.write_text(json.dumps(result, indent=1, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
