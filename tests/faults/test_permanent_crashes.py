"""Permanent crashes within ``f``, through the one fault path.

The paper's failure model is N servers of which up to ``f`` crash and
never come back.  No chaos shape covers it: ``crash-recover`` always
recovers and ``crash-over-budget`` exceeds ``f``.  So this property
hands :func:`run_chaos_workload` an explicit :class:`FaultTimeline` of
permanent crash events (no recovery tick): at most ``f`` victims, each
crashing at a tick in [0, 40].  The ticks are drawn early because a
crash event after the workload has finished never fires.

Every run must be safe (atomic) and live, every drawn crash must fire,
and the same inputs twice must give the same result; different seeds
must give different workloads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.campaign import FaultConfig, FaultTimeline, run_chaos_workload
from repro.registers.abd import build_abd_system
from repro.registers.cas import build_cas_system
from repro.registers.casgc import build_casgc_system

SYSTEMS = {
    "abd": lambda: build_abd_system(
        n=5, f=2, value_bits=4, num_writers=2, num_readers=2
    ),
    "cas": lambda: build_cas_system(
        n=7, f=2, value_bits=8, num_writers=2, num_readers=2
    ),
    "casgc": lambda: build_casgc_system(
        n=7, f=2, value_bits=8, num_writers=2, num_readers=2, gc_depth=2
    ),
}


@st.composite
def permanent_crashes(draw, server_ids, f):
    """At most ``f`` distinct victims, each crashing for good by tick 40."""
    victims = draw(st.lists(st.sampled_from(server_ids), max_size=f, unique=True))
    return tuple((pid, draw(st.integers(0, 40)), None) for pid in victims)


def _run(name, seed, events):
    return run_chaos_workload(
        SYSTEMS[name](),
        FaultConfig(name="crash", seed=seed),
        num_ops=10,
        timeline=FaultTimeline(crash_events=events),
    )


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10**6))
def test_permanent_crashes_within_f_stay_safe_and_live(name, data, seed):
    handle = SYSTEMS[name]()
    events = data.draw(permanent_crashes(handle.server_ids, handle.f))
    result = _run(name, seed, events)
    assert result.safety_ok, result.safety_reason
    assert result.live, result.verdict()
    assert result.crashes == len(events)
    assert _run(name, seed, events).to_cache_dict() == result.to_cache_dict()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_different_seeds_diverge(name):
    # The seed drives the workload: invocation ticks, clients, values.
    events = (("s000", 10, None),)
    runs = {
        (result.steps, result.workload)
        for result in (_run(name, seed, events) for seed in range(4))
    }
    assert len(runs) > 1
