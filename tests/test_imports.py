"""Which scipy submodules the package loads, and when.

``import drivenchain`` loads numpy and the top-level ``scipy`` package only:
``scipy.special`` comes in with the first energy-chain sampler or chi-square
p-value, ``scipy.stats`` with the first KS p-value.  Each check runs in a
fresh interpreter, since a module once imported stays in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script: str, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


LAZY_SCRIPT = """
import sys
from pathlib import Path

def loaded():
    return {m for m in ("scipy.special", "scipy.stats") if m in sys.modules}

import drivenchain, drivenchain.cli
from drivenchain import cli
assert "numpy" in sys.modules and "scipy" in sys.modules
assert loaded() == set(), loaded()

out = Path(sys.argv[1])
chain = ["--model", "discrete", "--n", "3", "--beta-a", "0.5", "--beta-b", "0.75"]
assert cli.main(["simulate", *chain, "--t-max", "300", "--seed", "5",
                 "--grid-samples", "512", "--out", str(out / "sim")]) == 0
assert cli.main(["verify", "--suite", "identities", "--out", str(out / "verify")]) == 0
assert cli.main(["sample-exact", *chain, "--samples", "100", "--seed", "1",
                 "--out", str(out / "sample")]) == 0
assert "scipy.stats" not in loaded(), loaded()

assert cli.main(["compare", "--sim", str(out / "sim"), "--out", str(out / "cmp")]) == 0
assert loaded() == {"scipy.special"}, loaded()
"""


def test_scipy_submodules_load_on_first_use(tmp_path):
    run_fresh(LAZY_SCRIPT, str(tmp_path))


POOL_SCRIPT = """
import sys
from drivenchain import cli

seen = []
pool = cli.ProcessPoolExecutor

def recording_pool(*args, **kwargs):
    seen.append("scipy.special" in sys.modules)
    return pool(*args, **kwargs)

cli.ProcessPoolExecutor = recording_pool
assert cli.main(["simulate", "--model", "continuous", "--n", "2", "--t-max", "2",
                 "--grid-samples", "8", "--replicas", "2", "--workers", "2",
                 "--out", sys.argv[1]]) == 0
assert seen == [True], seen
"""


def test_continuous_pool_parent_loads_scipy_special_first(tmp_path):
    # Forked workers inherit the parent's modules: loaded there once, the
    # exponential integral costs no worker its own import.
    run_fresh(POOL_SCRIPT, str(tmp_path / "sim"))
