"""Scaling sweeps for the traced run.

* simulator events/s at n in {1, 5, 20, 65, 200}, both models, started at
  the exact mean profile so no time is spent filling an empty chain;
* continuous chain at cutoff eps in {1e-4, 1e-5, 1e-6}: events per unit of
  simulated time, and the signed mean over sites of the mean-profile z-score
  against ``moment_profile`` (the cutoff drops jumps below eps, a bias of
  order eps; Asmussen & Rosinski (2001) is the reference for choosing eps);
* mixture density cost at n = 1..6 (nested quadrature up to n=4, Monte
  Carlo beyond), with the method and draws recorded;
* ``verify --suite telescoping`` cost at n = 1, 2, 3, 5.
"""

from __future__ import annotations

import contextlib
import sys
import time
from pathlib import Path

import numpy as np
from drivenchain import cli, measure, simulate, simulate_continuous
from drivenchain.core import ChainParams
from drivenchain.stats import profile_report

SIZES = (1, 5, 20, 65, 200)
EPSILONS = {"eps1e-4": 1e-4, "eps1e-5": 1e-5, "eps1e-6": 1e-6}
DENSITY_SIZES = (1, 2, 3, 4, 5, 6)
TELESCOPING_SIZES = (1, 2, 3, 5)


def _spec(n: int, model: measure.Model) -> measure.MixtureSpec:
    return measure.MixtureSpec(ChainParams(n=n, beta_a=0.5, beta_b=0.75, t_a=1.0, t_b=2.0), model)


def _run_sim(model: str, n: int, t_max: float, seed: int, **kwargs):
    if model == "discrete":
        means = measure.moment_profile(_spec(n, measure.Model.DISCRETE)).means
        return simulate(_spec(n, measure.Model.DISCRETE).params, t_max, burn_in=0.0,
                        seed=seed, eta0=np.rint(means).astype(int), grid_samples=64)
    means = measure.moment_profile(_spec(n, measure.Model.CONTINUOUS)).means
    return simulate_continuous(_spec(n, measure.Model.CONTINUOUS).params, t_max,
                               burn_in=kwargs.get("burn_in", 0.0), seed=seed, z0=means,
                               grid_samples=kwargs.get("grid_samples", 64),
                               epsilon=kwargs.get("epsilon"))


def size_sweep(seed: int, target_s: float) -> dict[str, float]:
    out = {}
    for model, layer in (("discrete", "discrete_sim"), ("continuous", "continuous_sim")):
        for n in SIZES:
            t_pilot = 1.0
            pilot = _run_sim(model, n, t_pilot, seed)
            while pilot.wall_seconds < target_s / 20:
                t_pilot *= 4.0
                pilot = _run_sim(model, n, t_pilot, seed)
            st = _run_sim(model, n, t_pilot * target_s / pilot.wall_seconds, seed + 1)
            out[f"{layer}.events_per_s.n{n}"] = st.event_count / st.wall_seconds
    return out


def epsilon_sweep(seed: int, t_max: float) -> dict[str, float]:
    out = {}
    spec = _spec(5, measure.Model.CONTINUOUS)
    for tag, eps in EPSILONS.items():
        st = _run_sim("continuous", 5, t_max, seed, epsilon=eps, burn_in=0.1 * t_max,
                      grid_samples=4096)
        out[f"continuous_sim.events_per_time.{tag}"] = st.event_count / t_max
        out[f"continuous_sim.mean_bias_se.{tag}"] = float(np.mean(profile_report(st, spec).z_mean))
    return out


def density_sweep(seed: int, mc_samples: int) -> tuple[dict[str, float], dict]:
    out, notes = {}, {}
    for n in DENSITY_SIZES:
        spec = _spec(n, measure.Model.DISCRETE)
        eta = np.rint(measure.moment_profile(spec).means).astype(int)
        times = []
        while len(times) < 5 and sum(times) < 0.2:
            t0 = time.perf_counter()
            est = measure.mixture_density_discrete(spec, eta, mc_samples=mc_samples, seed=seed)
            times.append(time.perf_counter() - t0)
        out[f"measure.density_s.n{n}"] = float(np.median(times))
        notes[f"n{n}"] = {"method": est.method, "mc_draws": est.samples, "calls": len(times)}
    return out, notes


def telescoping_sweep(work: Path, mc_samples: int) -> dict[str, float]:
    out = {}
    for n in TELESCOPING_SIZES:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(["verify", "--suite", "telescoping", "--sizes", str(n),
                           "--mc-samples", str(mc_samples), "--out", str(work / f"tele{n}")])
        out[f"verify.telescoping_s.n{n}"] = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"verify --suite telescoping --sizes {n} exited {rc}")
    return out


def run(seed: int, work: Path, smoke: bool) -> dict:
    t0 = time.perf_counter()
    layers = size_sweep(seed, 0.02 if smoke else 0.4)
    layers |= epsilon_sweep(seed, 20.0 if smoke else 1000.0)
    density, notes = density_sweep(seed, 20_000 if smoke else 200_000)
    layers |= density
    layers |= telescoping_sweep(work, 20_000 if smoke else 200_000)
    return {"layers": layers, "density_notes": notes, "sweep_wall_s": time.perf_counter() - t0}
