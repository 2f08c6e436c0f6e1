"""Shared fixtures, and the reference stepper the event engine is held to.

The stepper runs the dynamics of ``occupation.run_window`` one function call
per event (``_jump``), per site change (``_update_site``) and per channel
choice (``_select_site``), with the chain and its rate cache kept on the
``ChainState`` and the clock, event count, fluxes and largest resync drift
in a ``StepperRun`` record of its own.  Like ``run_window`` it wraps the
Generator it is given in one ``occupation.BlockDraws`` and takes every draw
from that wrapper, the samplers' included.  It draws the same random
numbers in the same order and does the same float operations, so
``run_window`` must reproduce its trajectory bit for bit; it accumulates no
statistics.
"""

from dataclasses import dataclass
from typing import Any

import pytest

from drivenchain import occupation


def _select_site(rates, u):
    """Site x whose two channels (rate ``rates[x]`` each) hold u, and the offset into them.

    Linear scan over the doubled rates.  A float spill past the top lands on
    the last positive-rate site.
    """
    for x, r in enumerate(rates):
        two_r = 2.0 * r
        if u < two_r:
            return x, u
        u -= two_r
    return max(i for i, r in enumerate(rates) if r > 0.0), 0.0


def _update_site(state, x, new):
    state.values[x] = new
    rate = state.rate_of(new)
    delta = rate - state.site_rate[x]
    state.site_rate[x] = rate
    state.rate_sum += delta


@dataclass
class StepperRun:
    """What the reference stepper counts: clock, events, fluxes, largest resync drift,
    and ``end``, where the first holding time past t_max ends (at or after t_max)."""

    time: float = 0.0
    events: int = 0
    injected_a: Any = 0
    extracted_a: Any = 0
    injected_b: Any = 0
    extracted_b: Any = 0
    max_resync_drift: float = 0.0
    end: float = 0.0


def _jump(state, run, draws):
    """Select one channel proportionally to its rate, execute it, and book its flux in ``run``."""
    values = state.values
    rate_a = state.sampler_a.total_rate
    rate_b = state.sampler_b.total_rate
    u = draws.random() * (2.0 * state.rate_sum + state.inj_rate)
    if u < rate_a:
        amount = state.sampler_a.draw(draws)
        _update_site(state, 0, values[0] + amount)
        run.injected_a += amount
        return
    u -= rate_a
    last = len(values) - 1
    if u < rate_b:
        amount = state.sampler_b.draw(draws)
        _update_site(state, last, values[last] + amount)
        run.injected_b += amount
        return
    u -= rate_b
    # Removal channels: two per site, each at rate site_rate[x].
    x, u = _select_site(state.site_rate, u)
    to = x - 1 if u < state.site_rate[x] else x + 1
    held = values[x]
    if not held > state.floor:
        raise RuntimeError(f"removal channel selected at site {x} holding {held!r}")
    amount = state.remove(held, draws)
    _update_site(state, x, held - amount)
    if to < 0:
        run.extracted_a += amount
    elif to > last:
        run.extracted_b += amount
    else:
        _update_site(state, to, values[to] + amount)


def run_reference(state, rng, t_max, after_each_event=lambda state, run: None) -> StepperRun:
    """Advance ``state`` to t_max, calling after_each_event(state, run) after every event.

    The hook runs before ``run.events`` counts the event, so it sees 0 on
    the first event.  The rate cache resyncs as in ``run_window``.  Returns
    the run's record.  ``rng`` is a Generator, wrapped here as ``run_window`` wraps it.
    """
    draws = occupation.BlockDraws(rng)
    run = StepperRun()
    while True:
        dt = draws.standard_exponential() / (2.0 * state.rate_sum + state.inj_rate)
        t_new = run.time + dt
        if t_new >= t_max:
            run.end = t_new
            break
        run.time = t_new
        _jump(state, run, draws)
        after_each_event(state, run)
        run.events += 1
        if run.events % occupation.RESYNC_INTERVAL == 0:
            run.max_resync_drift = max(run.max_resync_drift, state.resync())
    run.max_resync_drift = max(run.max_resync_drift, state.resync())
    return run


def assert_same_run(stats, state, run) -> None:
    """The engine's ``stats`` ended where the stepper's ``state`` and ``run`` did, bit
    for bit: event count, final values, the four fluxes and the largest resync drift."""
    final = stats.extra["final_eta" if stats.model == "discrete" else "final_z"]
    assert (stats.event_count, final, stats.injected_a, stats.extracted_a,
            stats.injected_b, stats.extracted_b, stats.extra["max_resync_drift"]) == (
        run.events, state.values, float(run.injected_a), float(run.extracted_a),
        float(run.injected_b), float(run.extracted_b), run.max_resync_drift)


@pytest.fixture
def reference_run():
    """``run(state, rng, t_max, after_each_event) -> StepperRun``: the reference stepper."""
    return run_reference


@pytest.fixture
def same_run():
    """``check(stats, state, run)``: assert an engine run ended as the stepper did."""
    return assert_same_run
