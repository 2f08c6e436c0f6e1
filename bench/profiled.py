"""Event-loop split: where a simulator event's time goes, by cProfile.

The profiler runs in this process only and only while a simulator function
that ``cli`` calls is on the stack, so CSV/JSON writing and ``profile_report``
stay out.  Every profiled function gets one of five roles:

* ``loop``   - the event loop body, including its inline occupation accumulation;
* ``select`` - channel selection (``_jump*``, Fenwick ``search``);
* ``update`` - rate bookkeeping after an event (``_update_site*``, Fenwick ``add``, resync);
* ``batch``  - batch/jump-size samplers;
* ``hist``   - histogram ``add``.

Functions outside the table (builtins, numpy, RNG methods) are charged to the
role of the caller, by the time of that call edge.  cProfile adds a fixed cost
to every Python call, so shares from this pass overstate call-heavy roles;
timings come from the untraced and traced runs, not from here.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from collections import defaultdict
from pathlib import Path

from drivenchain import cli

import workloads

ROLES = ("loop", "select", "update", "batch", "hist")

# (file basename, function name) -> role.
ROLE_TABLE = {
    ("discrete_sim.py", "simulate"): "loop",
    ("discrete_sim.py", "new_state"): "loop",
    ("discrete_sim.py", "_jump"): "select",
    ("discrete_sim.py", "_update_site"): "update",
    ("discrete_sim.py", "resync"): "update",
    ("discrete_sim.py", "_prefix_list"): "batch",
    ("discrete_sim.py", "sample_k_harmonic"): "batch",
    ("discrete_sim.py", "sample_k_logarithmic"): "batch",
    ("continuous_sim.py", "simulate_continuous"): "loop",
    ("continuous_sim.py", "new_state_continuous"): "loop",
    ("continuous_sim.py", "_jump_continuous"): "select",
    ("continuous_sim.py", "_update_site_energy"): "update",
    ("continuous_sim.py", "resync"): "update",
    ("continuous_sim.py", "sample_alpha_removal"): "batch",
    ("continuous_sim.py", "draw"): "batch",
    ("core.py", "search"): "select",
    ("core.py", "add"): "update",
    ("core.py", "harmonic_number"): "update",
    ("occupation.py", "add"): "hist",
}


def role_of(key) -> str | None:
    filename, _, func = key
    return ROLE_TABLE.get((os.path.basename(filename), func))


def split(stats: dict) -> tuple[dict[str, float], dict[str, list[str]]]:
    """Seconds per role and the functions charged to each, from ``pstats.Stats.stats``."""
    seconds: dict[str, float] = defaultdict(float)
    assigned: dict[str, set] = defaultdict(set)
    for key, (_cc, _nc, tottime, _ct, callers) in stats.items():
        role = role_of(key)
        label = f"{os.path.basename(key[0])}:{key[2]}"
        if role is not None:
            seconds[role] += tottime
            assigned[role].add(label)
            continue
        for caller, edge in callers.items():
            caller_role = role_of(caller)
            if caller_role is not None:
                seconds[caller_role] += edge[3]
                assigned[caller_role].add(f"{label} (via {caller[2]})")
    return dict(seconds), {r: sorted(v) for r, v in assigned.items()}


def run(workload: str, seed: int, work: Path, smoke: bool) -> dict:
    """Profile one iteration's ``simulate`` commands of a sim workload."""
    profilers = {"discrete": cProfile.Profile(), "continuous": cProfile.Profile()}

    def profiled(fn, prof):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prof.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                prof.disable()
        return wrapper

    cli.simulate = profiled(cli.simulate, profilers["discrete"])
    cli.simulate_continuous = profiled(cli.simulate_continuous, profilers["continuous"])
    hooks = workloads.Hooks()
    hooks.install()
    runner = workloads.Runner(hooks, smoke)
    spec = workloads.SIM_WORKLOADS[workload]
    seeds = workloads._iteration_seed(seed, 0).generate_state(len(spec["sims"]))
    t0 = time.perf_counter()
    for j, argv in enumerate(spec["sims"]):
        if smoke:
            argv = workloads._apply(argv, spec["smoke"])
        runner.simulate([*argv, "--seed", str(int(seeds[j]))], work / f"sim{j}")
    out = {"profile_wall_s": time.perf_counter() - t0, "failures": runner.failures,
           "layers": {}, "roles": {}}
    for model, layer in (("discrete", "discrete_sim"), ("continuous", "continuous_sim")):
        prof = profilers[model]
        prof.create_stats()
        seconds, assigned = split(pstats.Stats(prof).stats if prof.stats else {})
        total = sum(seconds.values())
        for role in ROLES:
            out["layers"][f"{layer}.share.{role}"] = seconds.get(role, 0.0) / total if total else 0.0
        out["roles"][layer] = assigned
    return out
