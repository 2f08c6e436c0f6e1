"""The benchmark in bench/ hooks the package by attribute name: every name must resolve."""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Run in a fresh interpreter: the hooks replace module attributes for good.
SCRIPT = """
import importlib, sys, types
sys.path.insert(0, sys.argv[1])
import tracing, workloads
from drivenchain import cli
from drivenchain.core import ChainParams

hooks = types.SimpleNamespace(samplers=[])
tracer = tracing.Tracer()
tracing.install(tracer, hooks)
assert tracer.missing == [], tracer.missing
for attr in workloads.OBSERVED_SIMULATORS:
    assert callable(getattr(cli, attr)), attr
for owner, attr in workloads.REFERENCE_POINTS:
    assert callable(getattr(importlib.import_module("drivenchain." + owner), attr)), attr

# What the hooks read: injection-sampler counters and each replica's final state.
st = cli.simulate_continuous(ChainParams(n=2, t_a=1.0, t_b=2.0), 2.0, seed=1, grid_samples=8)
assert len(hooks.samplers) == 2
assert all(isinstance(s.proposals, int) and isinstance(s.accepts, int) for s in hooks.samplers)
assert len(st.extra["final_z"]) == 2
st = cli.simulate(ChainParams(n=2), 2.0, seed=1, grid_samples=8)
assert len(st.extra["final_eta"]) == 2
"""


def test_benchmark_hooks_resolve():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave bench/ untouched
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(BENCH)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
