"""Spans around the calls one drivenchain layer makes into another.

The package is not edited: ``install`` replaces module attributes (the names
``cli`` imports from the other modules, the quadrature aliases in ``measure``
and ``verify``, ``OccupationStats.merge``) with wrappers that open a span on
entry and close it on return.  Spans are held in flat arrays and written out
once, when the run ends.  A layer's self time is its span time minus the time
of its direct child spans.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    """Span store: name, start, end, parent, and whether a same-named span encloses it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")
        self.failed = array("b")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._open.get(nid, 0)
        self.nested.append(1 if depth else 0)
        self._open[nid] = depth + 1
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.name[idx]] -= 1
        if failed:
            self.failed[idx] = 1

    def wrap(self, owner, attr: str, span: str, inspect=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper; ``inspect(idx, args, result)`` runs after the span closes."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self.begin(span)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self.finish(idx, failed=True)
                raise
            self.finish(idx)
            if inspect is not None:
                inspect(idx, args, result)
            return result

        setattr(owner, attr, wrapper)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def install(tracer: Tracer, hooks) -> None:
    """Wrap every layer boundary the benchmark measures.

    ``hooks`` receives the values a span alone cannot give: GOF verdicts,
    quadrature panel counts, Monte Carlo draws and injection-sampler counters.
    """
    from drivenchain import cli, continuous_sim, core, measure, stats, verify
    from drivenchain.occupation import OccupationStats

    def note_suite(idx, args, result):
        tracer.attrs[idx] = {"suite": getattr(args[0], "suite", "")}

    for attr, span in (("cmd_simulate", "cli.simulate"), ("cmd_compare", "cli.compare"),
                       ("cmd_sample_exact", "cli.sample_exact")):
        tracer.wrap(cli, attr, span)
    tracer.wrap(cli, "cmd_verify", "cli.verify", note_suite)

    tracer.wrap(cli, "simulate", "discrete_sim.simulate")
    tracer.wrap(cli, "simulate_continuous", "continuous_sim.simulate")
    tracer.wrap(continuous_sim, "new_state_continuous", "continuous_sim.new_state",
                lambda idx, args, state: hooks.samplers.extend(
                    (state.sampler_a, state.sampler_b)))
    tracer.wrap(OccupationStats, "merge", "occupation.merge")

    tracer.wrap(cli, "profile_report", "stats.profile_report")
    tracer.wrap(stats, "integrated_autocorr_time", "stats.autocorr")
    tracer.wrap(cli, "effective_sample_size", "stats.ess")
    gof = lambda idx, args, res: tracer.attrs.__setitem__(idx, {"inconclusive": res.inconclusive})
    tracer.wrap(cli, "chi_square_discrete", "stats.gof", gof)
    tracer.wrap(cli, "ks_continuous", "stats.gof", gof)

    for owner in (cli, verify):
        tracer.wrap(owner, "marginal_pmf_discrete", "measure.marginal")
    tracer.wrap(cli, "marginal_cdf_continuous", "measure.marginal")
    density = lambda idx, args, res: tracer.attrs.__setitem__(
        idx, {"method": res.method, "samples": res.samples, "n": len(args[1])})
    for owner in (measure, verify):
        tracer.wrap(owner, "mixture_density_discrete", "measure.density", density)
        tracer.wrap(owner, "mixture_density_continuous", "measure.density", density)
    draws = lambda idx, args, res: tracer.attrs.__setitem__(idx, {"draws": int(np.shape(res)[0])})
    tracer.wrap(cli, "sample_exact_discrete", "measure.sample", draws)
    tracer.wrap(cli, "sample_exact_continuous", "measure.sample", draws)
    for owner in (cli, stats, verify):
        tracer.wrap(owner, "moment_profile", "measure.moments")

    panels = lambda idx, args, res: tracer.attrs.__setitem__(idx, {"panels": res.intervals})
    for owner in (core, measure, verify):
        tracer.wrap(owner, "quadrature_1d", "core.quad", panels)
        tracer.wrap(owner, "ordered_simplex_integral", "core.ordered_simplex")

    tracer.wrap(cli, "run_suite", "verify.suite")
    tracer.wrap(cli, "check_stationarity_direct_discrete", "verify.stationarity")


def _child_time(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    has_parent = parent >= 0
    return np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)


def layer_metrics(tracer: Tracer, hooks, iterations: list[tuple[float, float, float]]) -> dict[str, float]:
    """Per-layer numbers from the spans of a traced run, per workload iteration.

    ``iterations`` holds (start, end, wall) per iteration, ``wall`` being the
    time of its operations without the reference loops between them.
    Counts and times are totals over the run divided by the number of
    iterations; rates and percentiles pool every call of the run.
    """
    a = tracer.arrays()
    names = np.array(tracer.names + [""])
    span_name = names[a["name"]] if a["name"].size else np.array([], dtype=str)
    dur = a["end"] - a["start"]
    self_time = dur - _child_time(a["parent"], dur)
    outer = a["nested"] == 0
    n_iter = max(len(iterations), 1)

    def sel(name):
        return span_name == name

    def total(name):
        return float(dur[sel(name) & outer].sum()) / n_iter

    def count(name):
        return float(sel(name).sum()) / n_iter

    def attr_values(name, key):
        return [tracer.attrs[i].get(key) for i in np.flatnonzero(sel(name)) if i in tracer.attrs]

    out: dict[str, float] = {}
    sims = hooks.sim_commands
    for model, layer in (("discrete", "discrete_sim"), ("continuous", "continuous_sim")):
        mine = [s for s in sims if s["model"] == model]
        events = sum(s["events"] for s in mine)
        busy = sum(s["busy_s"] for s in mine)
        out[f"{layer}.events"] = events / n_iter
        out[f"{layer}.busy_s"] = busy / n_iter
        out[f"{layer}.events_per_s"] = events / busy if busy > 0 else 0.0
    proposals = sum(s.proposals for s in hooks.samplers)
    accepts = sum(s.accepts for s in hooks.samplers)
    out["continuous_sim.injection_acceptance"] = accepts / proposals if proposals else 0.0

    out["occupation.merges"] = count("occupation.merge")
    out["occupation.merge_s"] = total("occupation.merge")
    out["occupation.series_mb"] = sum(
        s["grid_samples"] * s["n"] * s["replicas"] * 8 for s in sims) / 1e6 / n_iter

    out["stats.profile_report_s"] = total("stats.profile_report")
    out["stats.autocorr_calls"] = count("stats.autocorr")
    out["stats.autocorr_s"] = total("stats.autocorr")
    out["stats.gof_s"] = total("stats.gof")
    out["stats.gof_inconclusive"] = sum(bool(v) for v in attr_values("stats.gof", "inconclusive")) / n_iter

    out["measure.marginal_calls"] = count("measure.marginal")
    out["measure.marginal_s"] = total("measure.marginal")
    out["measure.density_calls"] = count("measure.density")
    out["measure.density_s"] = total("measure.density")
    density_ms = dur[sel("measure.density") & outer] * 1e3
    out["measure.density_ms.p50"] = float(np.percentile(density_ms, 50)) if density_ms.size else 0.0
    out["measure.density_ms.p99"] = float(np.percentile(density_ms, 99)) if density_ms.size else 0.0
    out["measure.density_mc_draws"] = sum(attr_values("measure.density", "samples")) / n_iter
    sample_s = total("measure.sample") * n_iter
    sample_draws = sum(attr_values("measure.sample", "draws"))
    out["measure.sample_draws_per_s"] = sample_draws / sample_s if sample_s > 0 else 0.0

    quad = sel("core.quad")
    out["core.quad_calls"] = count("core.quad")
    out["core.quad_panels"] = sum(attr_values("core.quad", "panels")) / n_iter
    out["core.quad_s"] = total("core.quad")
    out["core.quad_failures"] = float((quad & outer & (a["failed"] == 1)).sum()) / n_iter
    out["core.ordered_simplex_calls"] = count("core.ordered_simplex")
    out["core.ordered_simplex_s"] = total("core.ordered_simplex")

    verify_idx = np.flatnonzero(sel("cli.verify"))
    for suite in ("stationarity", "telescoping", "identities", "equilibrium"):
        t = sum(dur[i] for i in verify_idx if tracer.attrs.get(i, {}).get("suite") == suite)
        out[f"verify.{suite}_s"] = float(t) / n_iter
    out["verify.reports"] = hooks.verify_counts["reports"] / n_iter
    out["verify.failed"] = hooks.verify_counts["failed"] / n_iter
    out["verify.inconclusive"] = hooks.verify_counts["inconclusive"] / n_iter

    commands = ("cli.simulate", "cli.compare", "cli.verify", "cli.sample_exact")
    for cmd in commands:
        out[f"{cmd}_s"] = total(cmd)
    is_cmd = np.isin(span_name, commands)
    out["cli.self_s"] = float(self_time[is_cmd].sum()) / n_iter
    out["cli.bytes_written"] = hooks.bytes_written / n_iter
    out["cli.replica_overhead_s"] = (
        out["cli.simulate_s"] - sum(s["busy_s"] / s["workers"] for s in sims) / n_iter
        - out["occupation.merge_s"])

    top = a["parent"] == -1
    uncovered = []
    for lo, hi, wall in iterations:
        inside = top & (a["start"] >= lo) & (a["end"] <= hi)
        uncovered.append(wall - float(dur[inside].sum()))
    out["trace.uncovered_s"] = float(np.median(uncovered)) if uncovered else 0.0
    return out
