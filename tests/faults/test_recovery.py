"""Tests for crash-recovery: World.recover and CrashRecoverySchedule."""

import pytest

from repro.consistency.atomicity import check_atomicity
from repro.errors import ConfigurationError, SimulationError, UnknownProcessError
from repro.faults.recovery import CrashRecoverySchedule
from repro.registers.abd import build_abd_system
from repro.sim.process import ProcessContext, ServerProcess


class TestWorldRecover:
    def test_recover_restores_participation(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        world = handle.world
        sid = handle.server_ids[0]
        world.crash(sid)
        handle.write(7)  # completes via the other four servers
        world.recover(sid)
        assert not world.process(sid).failed
        assert handle.read().value == 7

    def test_recover_records_action(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        world = handle.world
        world.crash("s000")
        world.recover("s000")
        kinds = [a.kind for a in world.trace]
        assert kinds == ["crash", "recover"]

    def test_recover_requires_failed(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        with pytest.raises(SimulationError):
            handle.world.recover("s000")

    def test_rejoin_keeps_persisted_state(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        world = handle.world
        sid = handle.server_ids[0]
        handle.write(5)  # s000 stores (tag, 5)
        digest_before = world.process(sid).state_digest()
        world.crash(sid)
        handle.write(9)  # delivered to s000 is dropped while down
        world.recover(sid)
        # Persisted state: exactly what it had at the crash point.
        assert world.process(sid).state_digest() == digest_before

    def test_on_recover_hook_called(self):
        calls = []

        class Probe(ServerProcess):
            def on_message(self, ctx, src, message):  # pragma: no cover
                pass

            def state_digest(self):
                return ()

            def on_recover(self, ctx):
                calls.append((self.pid, ctx.step))

        handle = build_abd_system(n=5, f=1, value_bits=4)
        world = handle.world
        world.add_process(Probe("probe"))
        world.crash("probe")
        world.recover("probe")
        assert calls == [("probe", world.step_count)]

    def test_default_hook_is_noop(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        world = handle.world
        world.crash("s000")
        world.recover("s000")  # ABD server inherits the no-op default

    def test_history_atomic_across_crash_recover_cycles(self):
        handle = build_abd_system(n=5, f=1, value_bits=4, num_readers=2)
        world = handle.world
        sid = handle.server_ids[-1]
        for cycle in range(3):
            handle.write(cycle + 1)
            world.crash(sid)
            handle.read(reader=handle.reader_ids[0])
            world.recover(sid)
            handle.read(reader=handle.reader_ids[1])
        assert check_atomicity(world.operations).ok


class TestCrashRecoverySchedule:
    def build(self):
        return build_abd_system(n=5, f=2, value_bits=4)

    def test_validate_concurrent_budget(self):
        handle = self.build()
        # Three overlapping server downs exceed f=2 ...
        bad = CrashRecoverySchedule(
            (("s000", 0, 50), ("s001", 10, 60), ("s002", 20, 70))
        )
        with pytest.raises(ConfigurationError):
            bad.validate(handle.world, f=2)
        # ... but the same three staggered to never overlap are fine,
        # even though cumulative crashes exceed f.
        ok = CrashRecoverySchedule(
            (("s000", 0, 10), ("s001", 10, 20), ("s002", 20, 30))
        )
        ok.validate(handle.world, f=2)
        assert ok.max_concurrent_down() == 1

    def test_validate_rejects_inverted_interval(self):
        handle = self.build()
        with pytest.raises(ConfigurationError):
            CrashRecoverySchedule((("s000", 20, 10),)).validate(handle.world, 2)

    def test_validate_rejects_overlapping_same_pid(self):
        handle = self.build()
        with pytest.raises(ConfigurationError):
            CrashRecoverySchedule(
                (("s000", 0, 50), ("s000", 25, 75))
            ).validate(handle.world, 2)

    def test_apply_fires_in_order(self):
        handle = self.build()
        world = handle.world
        schedule = CrashRecoverySchedule((("s000", 5, 15),))
        applied = set()
        assert schedule.apply(world, 4, applied) == 0
        assert schedule.apply(world, 5, applied) == 1
        assert world.process("s000").failed
        assert schedule.apply(world, 10, applied) == 0  # crash fired once
        assert schedule.apply(world, 15, applied) == 1
        assert not world.process("s000").failed
        assert schedule.done(applied)

    def test_apply_skips_net_noop_when_both_overdue(self):
        handle = self.build()
        world = handle.world
        schedule = CrashRecoverySchedule((("s000", 5, 15),))
        applied = set()
        # A clock jump past both events nets out to "up".
        assert schedule.apply(world, 100, applied) == 0
        assert not world.process("s000").failed
        assert schedule.done(applied)

    def test_validate_unknown_pid(self):
        handle = self.build()
        with pytest.raises(UnknownProcessError):
            CrashRecoverySchedule((("ghost", 0, None),)).validate(handle.world, 2)

    def test_client_crashes_unbudgeted(self):
        handle = self.build()
        # Two permanently crashed servers plus a client: within f=2.
        CrashRecoverySchedule(
            (("w000", 0, None), ("s000", 0, None), ("s001", 5, None))
        ).validate(handle.world, f=2)
