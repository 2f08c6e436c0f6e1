"""Shared fixtures, and the reference stepper the event engine is held to.

The stepper runs the dynamics of ``occupation.run_window`` one function call
per event (``_jump``), per site change (``_update_site``) and per channel
choice (``_select_site``), with all state kept on the ``ChainState``.  It
draws the same random numbers in the same order and does the same float
operations, so ``run_window`` must reproduce its trajectory bit for bit; it
accumulates no statistics.
"""

import pytest

from drivenchain import occupation


def _select_site(rates, tree, u):
    """Site x whose two channels (rate ``rates[x]`` each) hold u, and the offset into them.

    Linear scan, or Fenwick search given a tree.  A float spill past the top,
    or an ulp spill onto a zero-rate slot, lands on the last positive-rate site.
    """
    if tree is None:
        for x, r in enumerate(rates):
            two_r = 2.0 * r
            if u < two_r:
                return x, u
            u -= two_r
    else:
        x, u = tree.search(u)
        if rates[x] > 0.0:
            return x, u
    return max(i for i, r in enumerate(rates) if r > 0.0), 0.0


def _update_site(state, x, new):
    state.values[x] = new
    rate = state.rate_of(new)
    delta = rate - state.site_rate[x]
    state.site_rate[x] = rate
    state.rate_sum += delta
    if state.tree is not None:
        state.tree.add(x, 2.0 * delta)


def _jump(state, rng):
    """Select one channel proportionally to its rate and execute it."""
    values = state.values
    rate_a = state.sampler_a.total_rate
    rate_b = state.sampler_b.total_rate
    u = rng.random() * (2.0 * state.rate_sum + state.inj_rate)
    if u < rate_a:
        amount = state.sampler_a.draw(rng)
        _update_site(state, 0, values[0] + amount)
        state.injected_a += amount
        return
    u -= rate_a
    last = len(values) - 1
    if u < rate_b:
        amount = state.sampler_b.draw(rng)
        _update_site(state, last, values[last] + amount)
        state.injected_b += amount
        return
    u -= rate_b
    # Removal channels: two per site, each at rate site_rate[x].
    x, u = _select_site(state.site_rate, state.tree, u)
    to = x - 1 if u < state.site_rate[x] else x + 1
    held = values[x]
    if not held > state.floor:
        raise RuntimeError(f"removal channel selected at site {x} holding {held!r}")
    amount = state.remove(held, rng)
    _update_site(state, x, held - amount)
    if to < 0:
        state.extracted_a += amount
    elif to > last:
        state.extracted_b += amount
    else:
        _update_site(state, to, values[to] + amount)


def run_reference(state, rng, t_max, after_each_event=lambda state: None):
    """Advance ``state`` to t_max, calling after_each_event(state) after every event.

    The hook runs before ``state.events`` counts the event, so it sees 0 on
    the first event.  The rate cache resyncs as in ``run_window``.
    """
    t = 0.0
    while True:
        dt = rng.standard_exponential() / (2.0 * state.rate_sum + state.inj_rate)
        t_new = t + dt
        if t_new >= t_max:
            break
        state.time = t = t_new
        _jump(state, rng)
        after_each_event(state)
        state.events += 1
        if state.events % occupation.RESYNC_INTERVAL == 0:
            state.resync()
    state.resync()


def assert_same_run(stats, state) -> None:
    """The engine's ``stats`` ended where the stepper's ``state`` did, bit for bit:
    event count, final values, the four fluxes and the largest resync drift."""
    final = stats.extra["final_eta" if stats.model == "discrete" else "final_z"]
    assert (stats.event_count, final, stats.injected_a, stats.extracted_a,
            stats.injected_b, stats.extracted_b, stats.extra["max_resync_drift"]) == (
        state.events, state.values, float(state.injected_a), float(state.extracted_a),
        float(state.injected_b), float(state.extracted_b), state.max_resync_drift)


@pytest.fixture
def reference_run():
    """``run(state, rng, t_max, after_each_event)``: the reference stepper."""
    return run_reference


@pytest.fixture
def same_run():
    """``check(stats, state)``: assert an engine run ended as the stepper did."""
    return assert_same_run
