"""Alternating benchmark pairs of two commits.

Exports a parent and a change commit with ``git archive`` into a temporary
directory (no worktree, nothing edited), then runs

    python3 bench/run.py --workload W --seed S --trace 0

in each tree alternately, the parent first in odd pairs and the change first
in even ones, pair i at seed S + i - 1.  Each run's last output line (the
benchmark's JSON result) is printed as it comes.  At the end it prints, for
each end-to-end metric of the change's ``BENCHMARK.json``: the median and
quartiles of both commits, in how many pairs the change was better, the
relative change of the medians against the metric's bound, and whether every
run was correct with 0 failed operations.  From the repository root:

    python3 tools/bench_pairs.py --workload neq-n65 --pairs 10 --seed 27001
    python3 tools/bench_pairs.py --workload neq-n5 --base HEAD~2 --head HEAD~1
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(commit: str, dest: Path) -> Path:
    """The tree of ``commit`` written under ``dest`` by ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``: its final JSON line, parsed."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """Report lines for (parent, change) result pairs, one block per metric of
    ``metrics`` (BENCHMARK.json ``end_to_end`` entries), then the verdict on
    correctness.  A change is better where its value is lower (higher) for a
    metric whose ``better`` is "lower" ("higher"); ties count for neither.
    Its relative change is (change median - parent median) / parent median,
    and it is out of bound when it is worse by more than ``bound``."""
    lines = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        base = [p["metrics"][name]["value"] for p, _ in pairs]
        head = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(base, head))
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better)")
        for label, values in (("parent", base), ("change", head)):
            q1, med, q3 = _quartiles(values)
            lines.append(f"  {label:6s} median {med:.6g}  IQR {q1:.6g}-{q3:.6g}  "
                         f"range {min(values):.6g}-{max(values):.6g}")
        rel = (statistics.median(head) - statistics.median(base)) / statistics.median(base)
        within = sign * rel <= metric["bound"]
        lines.append(f"  change better in {wins} of {len(pairs)} pairs; medians {rel:+.2%} "
                     f"({'within' if within else 'OUT OF'} bound {metric['bound']:.0%})")
    bad = [f"pair {i} {label}" for i, pair in enumerate(pairs, start=1)
           for label, res in zip(("parent", "change"), pair)
           if not res["correct"] or res["failed"] != 0]
    lines.append("every run correct with 0 failed operations" if not bad else
                 "NOT every run correct with 0 failed operations: " + ", ".join(bad))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 1; pair i takes seed + i - 1")
    ap.add_argument("--base", default="HEAD~1", help="the parent commit")
    ap.add_argument("--head", default="HEAD", help="the change commit")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": export(args.base, Path(tmp) / "parent"),
                 "change": export(args.head, Path(tmp) / "change")}
        metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        pairs = []
        for i in range(1, args.pairs + 1):
            seed = args.seed + i - 1
            order = ("parent", "change") if i % 2 else ("change", "parent")
            result = {}
            for label in order:
                result[label] = run_bench(trees[label], args.workload, seed)
                print(f"pair {i} {label} seed {seed} {json.dumps(result[label])}", flush=True)
            pairs.append((result["parent"], result["change"]))
    print(f"{args.workload}: {args.pairs} alternating pairs, {args.base} (parent) "
          f"against {args.head} (change)")
    print("\n".join(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
