"""Crash faults within the budget: atomic and live despite crashes.

A permanent server crash is a :class:`FaultTimeline` crash event with
no recovery tick, executed by :func:`run_chaos_workload`, the one
driver of faulted runs.  Here the crash pattern is fixed (f servers,
one down from the first tick and one mid-run) and the workload seed is
drawn; ``tests/faults/test_permanent_crashes.py`` draws the crashes too.
"""

from hypothesis import given, settings, strategies as st

from repro.faults.campaign import FaultConfig, FaultTimeline, run_chaos_workload
from repro.registers.abd import build_abd_system
from repro.registers.cas import build_cas_system


def run_with_crashes(handle, seed, num_ops):
    """The first ``f`` servers crash for good, at ticks 0, 20, 40, ..."""
    events = tuple(
        (pid, 20 * i, None) for i, pid in enumerate(handle.server_ids[: handle.f])
    )
    return run_chaos_workload(
        handle,
        FaultConfig(name="crash", seed=seed),
        num_ops=num_ops,
        timeline=FaultTimeline(crash_events=events),
    )


def assert_atomic_and_live(handle, result):
    assert result.crashes == handle.f
    assert result.live, result.verdict()
    assert result.safety_ok, result.safety_reason


class TestABDUnderCrashes:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_atomic_despite_crashes(self, seed):
        handle = build_abd_system(
            n=5, f=2, value_bits=4, num_writers=2, num_readers=2
        )
        assert_atomic_and_live(handle, run_with_crashes(handle, seed, num_ops=10))

    def test_deterministic(self):
        def run():
            handle = build_abd_system(
                n=5, f=2, value_bits=4, num_writers=2, num_readers=2
            )
            result = run_with_crashes(handle, seed=42, num_ops=8)
            return (
                result.crashes,
                [(o.kind, o.value) for o in handle.world.operations],
            )

        assert run() == run()

    def test_crash_budget_respected(self):
        # Crash/recover rounds asked for on every server still target
        # only f of them, so at most f servers are ever down at once.
        handle = build_abd_system(n=5, f=2, value_bits=4)
        config = FaultConfig(
            name="crash-every-server", seed=1,
            crash_recovery=True, fault_target_count=handle.n,
        )
        result = run_chaos_workload(handle, config, num_ops=6)
        schedule = result.timeline.schedule()
        assert len(schedule.pids()) == handle.f
        assert schedule.max_concurrent_down(handle.server_ids) == handle.f
        assert result.crashes == handle.f
        assert result.live, result.verdict()
        assert result.safety_ok, result.safety_reason


class TestCASUnderCrashes:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_atomic_despite_crashes(self, seed):
        handle = build_cas_system(
            n=7, f=2, value_bits=8, num_writers=2, num_readers=2
        )
        assert_atomic_and_live(handle, run_with_crashes(handle, seed, num_ops=8))
