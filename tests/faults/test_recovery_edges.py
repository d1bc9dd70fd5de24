"""Edge cases in timed crash/recovery schedules.

Covers the corners the campaign's happy path never exercises: a
recovery firing for a process that never actually crashed (the driver
clock jumped past both ticks at once), crash and recovery colliding on
one tick, and recoveries scheduled beyond the watchdog budget — in
every case ``run_chaos_workload`` must neither wedge nor miscount.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.campaign import FaultConfig, FaultTimeline, run_chaos_workload
from repro.faults.recovery import CrashRecoverySchedule
from repro.registers.abd import build_abd_system
from repro.registers.catalog import build_client_system


class TestScheduleEdges:
    def test_clock_jump_fires_recovery_first(self):
        """Applying at a tick past both crash and recovery must not
        crash-then-recover (let alone crash and strand): the recovery
        wins, the crash is marked implied, and nothing fires."""
        handle = build_abd_system(n=5, f=1, value_bits=4)
        schedule = CrashRecoverySchedule((("s004", 10, 20),))
        applied: set = set()
        fired = schedule.apply(handle.world, tick=25, applied=applied)
        assert fired == 0
        assert not handle.world.process("s004").failed
        assert schedule.done(applied)
        # Idempotent: re-applying later fires nothing new.
        assert schedule.apply(handle.world, tick=30, applied=applied) == 0

    def test_same_tick_crash_and_recover_rejected(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        schedule = CrashRecoverySchedule((("s004", 10, 10),))
        with pytest.raises(ConfigurationError):
            schedule.validate(handle.world, f=1)

    def test_adjacent_handoff_within_budget(self):
        """b crashes the tick a recovers: concurrent downs peak at 1,
        so the schedule is valid at f=1 despite 2 cumulative crashes."""
        handle = build_abd_system(n=5, f=1, value_bits=4)
        schedule = CrashRecoverySchedule(
            (("s003", 10, 20), ("s004", 20, 30))
        )
        schedule.validate(handle.world, f=1)
        assert schedule.max_concurrent_down(["s003", "s004"]) == 1


class TestChaosDriverEdges:
    def test_recovery_beyond_budget_diagnoses_not_wedges(self):
        """f+1 servers down with recoveries past max_ticks: the driver
        must give up with a diagnosis (not spin forever waiting on the
        recoveries) and count 2 crashes, 0 recoveries."""
        handle = build_client_system("abd", 5, 1, 6)
        config = FaultConfig(name="edge", seed=0, expect_liveness=False)
        timeline = FaultTimeline(
            crash_events=(("s003", 5, 9_000), ("s004", 5, 9_000)),
        )
        result = run_chaos_workload(
            handle, config, num_ops=6, max_ticks=2_000, timeline=timeline
        )
        assert not result.live
        assert result.diagnosis is not None
        assert result.crashes == 2
        assert result.recoveries == 0
        # Not silent: the failure is acceptable only because diagnosed.
        assert result.acceptable

    def test_crash_recovery_config_counts_both_sides(self):
        """The derived two-round schedule completes: every crash has
        its matching recovery fired and the workload stays live."""
        handle = build_client_system("abd", 5, 1, 6)
        config = FaultConfig(
            name="edge",
            seed=3,
            crash_recovery=True,
            fault_target_count=1,
            expect_liveness=True,
        )
        result = run_chaos_workload(handle, config, num_ops=40)
        assert result.live
        assert result.crashes == 2
        assert result.recoveries == 2
        assert result.timeline.event_count == 2
