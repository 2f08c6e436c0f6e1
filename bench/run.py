"""drivenchain benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py                                  # all workloads, untraced
    python3 bench/run.py --workload neq-n5 --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload exact-law --trace 1   # per-layer numbers
    python3 bench/run.py --smoke                          # self-test, tiny configs

Every workload runs in fresh interpreters started from this process
(``workloads.py``), with BLAS/OpenMP pinned to one thread.  ``--trace 0``
prints the end-to-end metrics declared in BENCHMARK.json; ``--trace 1``
prints the per-layer metrics, from a traced run, a cProfile pass and the
scaling sweeps.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Full results, the run
environment and the trace spans are written under ``.bench_out/``.
See README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("neq-n5", "neq-n65", "replicas-n5", "exact-law")
SIM_WORKLOADS = WORKLOADS[:3]
PROFILED = ("neq-n5", "neq-n65")
DEFAULT_SEED = 20230706
SETUP_PROBES = 2
# Duration of ``workloads.reference_loop`` on an unloaded core of a 2-core
# Intel Xeon host; set-up times are scaled to it.
REF_NOMINAL_S = 0.010
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


class Launcher:
    """Starts workload processes and keeps their logs under one output directory."""

    def __init__(self, out: Path, smoke: bool) -> None:
        self.out = out
        self.smoke = smoke
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.update({var: "1" for var in THREAD_VARS})

    def child(self, mode: str, workload: str, seed: int, seconds: float) -> tuple[dict, float]:
        """Run one workload process; returns its result and its spawn time (monotonic)."""
        self.count += 1
        tag = f"{self.count:02d}-{workload}-{mode}"
        work = self.out / f"{tag}-work"
        result = self.out / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "workloads.py"), mode, "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--work", str(work),
               "--result", str(result)]
        if self.smoke:
            cmd.append("--smoke")
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError(f"no time left for {tag}")
        log = self.out / f"{tag}.log"
        with open(log, "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=err, stderr=err, env=self.env,
                                    cwd=ROOT, start_new_session=True)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise BenchError(f"{tag} timed out after {timeout:.0f}s; log: {log}")
            finally:
                _reap_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
        if rc != 0:
            tail = log.read_text().splitlines()[-15:]
            raise BenchError(f"{tag} exited {rc}:\n" + "\n".join(tail))
        return json.loads(result.read_text()), spawned


def _reap_group(pgid: int) -> None:
    """Kill anything the workload process left in its process group (pool workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _tally(results: list[dict]) -> tuple[int, int, bool, list[str]]:
    """attempted, failed, correct, and a description of each failure.

    Every failed check fails the run: exit codes, mass balance, report
    contents, and the statistical verdicts at the per-call level of
    ``workloads.COMPARE_FAIL_*``/``SAMPLE_FAIL_Z``.  Rejections by the
    package's own rules are reported by ``_print_summary``, not failed.
    """
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    return attempted, len(failures), not failures, failures


def probe_setup(launcher: Launcher, workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds of a fresh process, and its reference time right after."""
    probe, spawned = launcher.child("probe", workload, seed, 0.0)
    return probe["ready"] - spawned, probe["ref"]


def untraced(launcher: Launcher, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # Probes before and after the measured process, so the median of set-up
    # times spans the run rather than one moment of a drifting machine.  Each
    # set-up time is scaled by the reference measured in the same process
    # just after it, to the reference's nominal duration.
    setups = [probe_setup(launcher, workload, seed) for _ in range(SETUP_PROBES)]
    res, spawned = launcher.child("plain", workload, seed, seconds)
    setups.append((res["first_call"] - spawned, res["first_ref"]))
    setups += [probe_setup(launcher, workload, seed) for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": statistics.median(s * REF_NOMINAL_S / ref for s, ref in setups),
        "wall_ref": statistics.median(res["wall_refs"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    attempted, failed, _, _ = _tally([res])
    extra = {
        "wall_s": statistics.median(res["walls"]),
        "error_rate": failed / attempted,
        "setup_unscaled_s": statistics.median(s for s, _ in setups),
        "setup_samples_s": setups,
    }
    if workload in SIM_WORKLOADS:
        extra["events_per_s"] = sum(res["events"]) / sum(res["sim_walls"])
    return metrics, {"result": res, "extra": extra}


def traced(launcher: Launcher, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    plain, _ = launcher.child("plain", workload, seed, seconds)
    trace, _ = launcher.child("traced", workload, seed, seconds)
    layers = dict(trace["layers"])
    layers["trace.overhead_frac"] = (statistics.median(trace["wall_refs"])
                                     / statistics.median(plain["wall_refs"]) - 1.0)
    layers["repo.src_lines"] = _src_lines()
    details = {"plain": plain, "traced": trace}
    if workload in PROFILED:
        prof, _ = launcher.child("profile", workload, seed, seconds)
        layers.update(prof["layers"])
        details["profile"] = prof
    else:
        for layer in ("discrete_sim", "continuous_sim"):
            for role in ("loop", "select", "update", "batch", "hist"):
                layers[f"{layer}.share.{role}"] = 0.0
    sweep, _ = launcher.child("sweeps", workload, seed, seconds)
    layers.update(sweep["layers"])
    details["sweeps"] = sweep
    return layers, details


def run_one(launcher: Launcher, declared: dict, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    launcher.started = time.monotonic()
    if trace:
        values, details = traced(launcher, workload, seed, seconds)
        results = [details["plain"], details["traced"]]
        units = declared["per_layer"]
    else:
        values, details = untraced(launcher, workload, seed, seconds)
        results = [details["result"]]
        units = declared["end_to_end"]
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    attempted, failed, correct, failures = _tally(results)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": results[0]["env"], "failures": failures, "line": line,
              "details": details}
    (launcher.out / f"result-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=float))
    _print_summary(record, None if trace else details)
    return line


def _print_summary(record: dict, untraced_details: dict | None) -> None:
    env = record["env"]
    line = record["line"]
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    for name, m in line["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if untraced_details is not None:
        extra = untraced_details["extra"]
        res = untraced_details["result"]
        print(f"  {'setup_s unscaled':40s} {extra['setup_unscaled_s']:.6g} s")
        print(f"  {'wall_s':40s} {extra['wall_s']:.6g} s")
        print(f"  {'events_per_s':40s} "
              + (f"{extra['events_per_s']:.6g} events/s" if "events_per_s" in extra else "n/a (no simulation)"))
        print(f"  {'error_rate':40s} {extra['error_rate']:.6g} ratio "
              f"({line['failed']} of {line['attempted']} operations, {res['iterations']} iterations)")
        for check, (rejected, calls) in sorted(res["own_rule"].items()):
            print(f"  recorded: {check} rejected by the package's own rule in {rejected} of {calls} calls")
        for note in sorted(set(res["recorded"])):
            print(f"  recorded: {note}")
    else:
        for name in record["details"]["traced"]["unwrapped"]:
            print(f"  not traced (attribute missing): {name}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def smoke(launcher: Launcher, declared: dict, seed: int) -> int:
    """Every workload in both modes with tiny configs.

    ``run_one`` raises unless exactly the metrics BENCHMARK.json declares are
    emitted, each with its declared unit; here the outputs must also be correct.
    """
    bad = [f"{w} trace={int(t)}" for w in WORKLOADS for t in (False, True)
           if not run_one(launcher, declared, w, seed, 1.0, t)["correct"]]
    print("smoke: OK" if not bad else f"smoke: incorrect outputs in {', '.join(bad)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: tiny configs of every workload, checks every metric is emitted")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "drivenchain" / "cli.py").is_file():
        print(f"error: no drivenchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared()
    out = ROOT / ".bench_out" / f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    out.mkdir(parents=True)
    launcher = Launcher(out, args.smoke)
    try:
        if args.smoke:
            return smoke(launcher, declared, args.seed)
        if args.workload != "all":
            line = run_one(launcher, declared, args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(line))
            return 0
        lines = {}
        for workload in WORKLOADS:
            lines[workload] = run_one(launcher, declared, workload, args.seed, args.seconds,
                                      bool(args.trace))
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
