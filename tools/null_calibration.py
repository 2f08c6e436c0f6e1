"""Null calibration of the moment z-scores and of ``compare``'s verdict.

For each seed of a range, runs ``simulate`` then ``compare`` on a correct
short run of each chain (n = 2, t_max 600, 4096 grid points; particles at
beta (0.5, 0.75), energies at T (1, 2)) and prints, per kind of entry, the
mean, sd, 1% and 99% quantiles and P(|z| >= 3) of its z-scores, the share of
runs with any covariance |z| >= 4, and the share that ``compare`` rejects
(exit 3).  Under a calibrated rule the mean z-scores are close to N(0, 1) and
the covariance ones close to Student's t with ``stats.COV_BATCHES - 1``
degrees of freedom.  It runs the ``drivenchain`` on the import path:

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


def run_seed(task: tuple[str, int]) -> tuple[int, dict[str, float]]:
    """``compare``'s exit code and every z-score of one seed's run of one chain."""
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
    return code, z


def summarise(chain: str, results: list[tuple[int, dict[str, float]]]) -> list[str]:
    """The calibration table of one chain's runs, as printed lines."""
    runs = len(results)
    lines = [f"{chain} ({runs} seeds)",
             f"  {'entry':<6} {'mean':>7} {'sd':>6} {'q01':>7} {'q99':>7} {'P(|z|>=3)':>10}"]
    for kind in KINDS:
        z = np.array([zs[kind] for _, zs in results])
        q01, q99 = np.quantile(z, [0.01, 0.99])
        lines.append(f"  {kind:<6} {z.mean():>+7.3f} {z.std():>6.3f} {q01:>+7.2f} {q99:>+7.2f} "
                     f"{np.mean(np.abs(z) >= 3.0):>10.4f}")
    past = sum(max(abs(zs[k]) for k in KINDS if not k.startswith("mean")) >= 4.0
               for _, zs in results)
    rejected = sum(code == cli.EXIT_FAIL for code, _ in results)
    lines.append(f"  runs with any covariance |z| >= 4: {past / runs:.2%} ({past} of {runs})")
    lines.append(f"  compare exit 3: {rejected / runs:.2%} ({rejected} of {runs})")
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
