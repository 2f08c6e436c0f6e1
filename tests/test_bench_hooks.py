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

# What the inspect callbacks read: one call through each wrapped name.
import numpy as np
from drivenchain import core, measure

def recorded(span):
    spans = [i for i, nid in enumerate(tracer.name) if tracer.names[nid] == span]
    assert spans, span
    return tracer.attrs.get(spans[-1], {})

quad = core.quadrature_1d(np.cos, 0.0, 1.0)
assert recorded("core.quad") == {"panels": quad.intervals} and quad.intervals > 0
core.ordered_simplex_integral([np.cos, np.sin], 0.0, 1.0)
recorded("core.ordered_simplex")
spec = measure.MixtureSpec(ChainParams(n=2, beta_a=0.5, beta_b=0.75), measure.Model.DISCRETE)
measure.mixture_density_discrete(spec, [0, 1])
assert recorded("measure.density") == {"method": "quadrature", "samples": 0, "n": 2}
cli.sample_exact_discrete(spec, core.make_rng(3), size=7)
assert recorded("measure.sample") == {"draws": 7}
cli.chi_square_discrete(np.array([5.0, 3.0, 2.0]), lambda k: 0.5 ** (k + 1.0), 1e4)
assert isinstance(recorded("stats.gof")["inconclusive"], bool)
"""


def test_benchmark_hooks_resolve():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave bench/ untouched
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(BENCH)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# The exact-law workload's density calls: it fails an operation unless the
# method is quadrature up to QUADRATURE_MAX_SITES and Monte Carlo beyond, with
# 0 <= error < value.
DENSITY_SCRIPT = """
import math, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import workloads
from drivenchain import measure
from drivenchain.core import ChainParams

assert isinstance(measure.QUADRATURE_MAX_SITES, int)
law = workloads.EXACT_LAW
want = {3: "quadrature", 4: "quadrature", 6: "monte-carlo"}
assert tuple(law["density_sizes"]) == tuple(want)
for n, method in want.items():
    kwargs = {} if method == "quadrature" else {"mc_samples": law["smoke"]["density_mc"], "seed": 5}
    disc = measure.MixtureSpec(ChainParams(n=n, beta_a=0.5, beta_b=0.75), measure.Model.DISCRETE)
    cont = measure.MixtureSpec(ChainParams(n=n, t_a=1.0, t_b=2.0), measure.Model.CONTINUOUS)
    for est in (
        measure.mixture_density_discrete(
            disc, np.rint(measure.moment_profile(disc).means).astype(int), **kwargs),
        measure.mixture_density_continuous(cont, measure.moment_profile(cont).means, **kwargs),
    ):
        assert est.method == method, (n, est)
        assert math.isfinite(est.value) and 0.0 <= est.error < est.value, (n, est)
"""


def test_exact_law_density_contract():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", DENSITY_SCRIPT, str(BENCH)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
