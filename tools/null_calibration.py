"""Null calibration of the moment z-scores and of ``compare``'s verdict.

For each seed of a range, runs ``simulate`` then ``compare`` on a correct
short run of each chain (n = 2, t_max 600, 4096 grid points; particles at
beta (0.5, 0.75), energies at T (1, 2)) and prints, per kind of entry, the
mean, sd, 1% and 99% quantiles and P(|z| >= 3) of its z-scores, the shares of
runs with any mean |z| >= 4 and with any covariance |z| >= 4 (either fails
``compare``), and the share that ``compare`` rejects (exit 3).  From each
run's ``gof.csv`` it prints the number of site goodness-of-fit tests (the
chi-square for particles, KS for energies), how many were inconclusive, the
shares of the others with p < 0.01 and p < 0.05, and their median p.  Under a
calibrated rule the mean z-scores are close to N(0, 1), the covariance ones
close to Student's t with ``stats.COV_BATCHES - 1`` degrees of freedom, and
the p-values close to uniform.  It runs the ``drivenchain`` on the import
path:

    PYTHONPATH=src python3 tools/null_calibration.py --seeds 1-2400 --workers 2
"""

from __future__ import annotations

import argparse
import csv
import io
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np

from drivenchain import cli

CHAINS = {
    "discrete": ["--model", "discrete", "--beta-a", "0.5", "--beta-b", "0.75"],
    "continuous": ["--model", "continuous", "--t-a", "1", "--t-b", "2"],
}
COMMON = ["--n", "2", "--t-max", "600", "--grid-samples", "4096"]
KINDS = ("mean1", "mean2", "var1", "cov12", "var2")


def run_seed(task: tuple[str, int]) -> tuple[int, dict[str, float], list[float]]:
    """``compare``'s exit code, every z-score and the GOF p-value of each site
    (NaN where inconclusive) of one seed's run of one chain."""
    chain, seed = task
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()):
        sim, out = Path(tmp) / "sim", Path(tmp) / "cmp"
        code = cli.main(["simulate", *CHAINS[chain], *COMMON, "--seed", str(seed),
                         "--out", str(sim)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"simulate {chain} seed {seed} exited {code}")
        code = cli.main(["compare", "--sim", str(sim), "--out", str(out)])
        z = {}
        for name, key in (("profile.csv", "site"), ("covariance.csv", None)):
            with open(sim / name, newline="") as fh:
                for row in csv.DictReader(fh):
                    if key:
                        kind = f"mean{row[key]}"
                    else:
                        kind = f"var{row['x']}" if row["x"] == row["y"] else f"cov{row['x']}{row['y']}"
                    z[kind] = float(row["z"])
        with open(out / "gof.csv", newline="") as fh:
            p_values = [float(row["p_value"]) for row in csv.DictReader(fh)]
    return code, z, p_values


def summarise(chain: str, results: list[tuple[int, dict[str, float], list[float]]]) -> list[str]:
    """The calibration table of one chain's runs, as printed lines."""
    runs = len(results)
    lines = [f"{chain} ({runs} seeds)",
             f"  {'entry':<6} {'mean':>7} {'sd':>6} {'q01':>7} {'q99':>7} {'P(|z|>=3)':>10}"]
    for kind in KINDS:
        z = np.array([zs[kind] for _, zs, _ in results])
        q01, q99 = np.quantile(z, [0.01, 0.99])
        lines.append(f"  {kind:<6} {z.mean():>+7.3f} {z.std():>6.3f} {q01:>+7.2f} {q99:>+7.2f} "
                     f"{np.mean(np.abs(z) >= 3.0):>10.4f}")
    for label, means in (("mean", True), ("covariance", False)):
        past = sum(max(abs(zs[k]) for k in KINDS if k.startswith("mean") == means) >= 4.0
                   for _, zs, _ in results)
        lines.append(f"  runs with any {label} |z| >= 4: {past / runs:.2%} ({past} of {runs})")
    rejected = sum(code == cli.EXIT_FAIL for code, _, _ in results)
    lines.append(f"  compare exit 3: {rejected / runs:.2%} ({rejected} of {runs})")
    p = np.array([v for _, _, ps in results for v in ps])
    conclusive = p[~np.isnan(p)]
    lines.append(f"  GOF site tests: {p.size}, inconclusive {p.size - conclusive.size}")
    if conclusive.size:
        lines.append(f"  GOF p < 0.01: {np.mean(conclusive < 0.01):.2%}, "
                     f"p < 0.05: {np.mean(conclusive < 0.05):.2%}, "
                     f"median p {np.median(conclusive):.3f}")
    return lines


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-100"),
                        help="inclusive seed range a-b (default 1-100)")
    parser.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args(argv)
    for chain in CHAINS:
        tasks = [(chain, seed) for seed in args.seeds]
        if args.workers > 1:
            with ProcessPoolExecutor(args.workers) as pool:
                results = list(pool.map(run_seed, tasks, chunksize=16))
        else:
            results = [run_seed(task) for task in tasks]
        print("\n".join(summarise(chain, results)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
