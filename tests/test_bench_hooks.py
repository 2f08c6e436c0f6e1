"""The benchmark in bench/ hooks the package by attribute name: every name must
resolve, and the CLI must still call each hooked layer."""

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


# The exact-law workload's telescoping run, at its smoke sample count: it fails
# an operation unless every report passes.  The method follows the densities'
# rule, and a Monte Carlo size draws exactly the flag's samples.
TELESCOPING_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from drivenchain import cli, measure

law = workloads.EXACT_LAW
sizes, mc = law["telescoping_sizes"], law["smoke"]["telescoping_mc"]
out = Path(sys.argv[2])
assert cli.main(["verify", "--suite", "telescoping", "--sizes", sizes,
                 "--mc-samples", str(mc), "--out", str(out)]) == cli.EXIT_OK
reports = [json.loads(line) for line in open(out / "reports.jsonl")]
assert {r["params"]["n"] for r in reports} == {int(s) for s in sizes.split(",")}
assert 5 in {r["params"]["n"] for r in reports}
for r in reports:
    assert r["passed"], r
    if r["params"]["n"] <= measure.QUADRATURE_MAX_SITES:
        assert r["method"] == "quadrature", r
    else:
        assert r["method"] == "monte-carlo" and r["notes"]["samples"] == mc, r
"""


def test_exact_law_telescoping_contract(tmp_path):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", TELESCOPING_SCRIPT, str(BENCH),
                           str(tmp_path / "tele")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# One tiny run of each CLI command under the traced run's wrappers: a CLI that
# stopped calling a hooked name would silently drop that layer's spans, and a
# dispatch that reached one twin past its hook would drop that (owner, name)
# pair.  These pairs are hooked but no CLI run here reaches them: the n=2
# chi-square is inconclusive before it evaluates the pmf, the product
# candidates and direct callers are not run, and core's integrators are
# reached through the measure and verify aliases.
NOT_REACHED = {("cli", "marginal_pmf_discrete"), ("verify", "marginal_pmf_discrete"),
               ("verify", "moment_profile"), ("measure", "mixture_density_discrete"),
               ("measure", "mixture_density_continuous"), ("core", "quadrature_1d"),
               ("core", "ordered_simplex_integral")}

CALLS_SCRIPT = """
import ast, sys, types
sys.path.insert(0, sys.argv[1])
import tracing
from drivenchain import cli

tracer = tracing.Tracer()
registered, pairs, reached = set(), set(), set()
wrap = tracer.wrap

def registering(owner, attr, span, inspect=None):
    registered.add(span)
    wrap(owner, attr, span, inspect)
    spanned = getattr(owner, attr, None)
    if spanned is None:
        return
    pair = (owner.__name__.rpartition(".")[2], attr)
    pairs.add(pair)

    def reaching(*args, **kwargs):
        reached.add(pair)
        return spanned(*args, **kwargs)

    setattr(owner, attr, reaching)

tracer.wrap = registering
tracing.install(tracer, types.SimpleNamespace(samplers=[]))
assert tracer.missing == [], tracer.missing
out = sys.argv[2]
sim = ["simulate", "--n", "2", "--t-max", "30", "--seed", "1", "--grid-samples", "256"]
for argv in (
    sim + ["--model", "discrete", "--replicas", "2", "--workers", "1", "--out", out + "/d"],
    sim + ["--model", "continuous", "--out", out + "/c"],
    ["compare", "--sim", out + "/d", "--out", out + "/cd"],
    ["compare", "--sim", out + "/c", "--out", out + "/cc"],
    ["sample-exact", "--model", "discrete", "--n", "2", "--samples", "50", "--out", out + "/sd"],
    ["sample-exact", "--model", "continuous", "--n", "2", "--samples", "50", "--out", out + "/sc"],
    ["verify", "--suite", "stationarity", "--n", "1", "--out", out + "/v1"],
    ["verify", "--suite", "telescoping", "--sizes", "1,4", "--mc-samples", "20000",
     "--out", out + "/v2"],
    ["verify", "--suite", "identities", "--out", out + "/v3"],
    ["verify", "--suite", "equilibrium", "--out", out + "/v4"],
):
    rc = cli.main(argv)
    assert rc in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_INCONCLUSIVE), (argv, rc)
assert registered - set(tracer.names) == set(), sorted(registered - set(tracer.names))
not_reached = ast.literal_eval(sys.argv[3])
assert not_reached <= pairs, sorted(not_reached - pairs)
assert pairs - reached <= not_reached, sorted(pairs - reached - not_reached)
"""


def test_cli_calls_every_hooked_layer(tmp_path):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", CALLS_SCRIPT, str(BENCH), str(tmp_path),
                           repr(NOT_REACHED)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
