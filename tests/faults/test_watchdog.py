"""Tests for the liveness watchdog and deadlock detection."""

import json

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlockDetectedError,
    StuckExecutionError,
)
from repro.faults.adversary import ChannelAdversary, Partition
from repro.faults.watchdog import (
    Diagnosis,
    LivenessWatchdog,
    VERDICT_BUDGET,
    VERDICT_DEADLOCK,
    VERDICT_PARTITION,
    VERDICT_QUORUM,
    diagnose_stall,
)
from repro.registers.abd import build_abd_system
from repro.sim.scheduler import ChannelFilter


class TestRunUntilDeadlock:
    def test_filter_blocking_everything_is_diagnosed(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        record = handle.world.invoke_write(handle.writer_ids[0], 1)
        freeze = ChannelFilter.freeze_process(handle.writer_ids[0])
        with pytest.raises(DeadlockDetectedError) as info:
            handle.world.run_op_to_completion(record, freeze)
        blocked = info.value.blocked_channels
        assert blocked  # names the channels holding messages
        assert all(handle.writer_ids[0] in key for key in blocked)

    def test_true_quiescence_still_plain_incomplete(self):
        from repro.errors import OperationIncompleteError

        handle = build_abd_system(n=3, f=1, value_bits=4)
        # Nothing in flight and the predicate can never hold.
        with pytest.raises(OperationIncompleteError) as info:
            handle.world.run_until(lambda w: False, max_steps=10)
        assert not isinstance(info.value, DeadlockDetectedError)

    def test_deadlock_is_an_operation_incomplete_error(self):
        # Valency probes rely on catching OperationIncompleteError.
        from repro.errors import OperationIncompleteError

        assert issubclass(DeadlockDetectedError, OperationIncompleteError)


class TestDiagnoseStall:
    def test_deadlock_verdict(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        handle.world.invoke_write(handle.writer_ids[0], 1)
        freeze = ChannelFilter.freeze_process(handle.writer_ids[0])
        diagnosis = diagnose_stall(handle.world, channel_filter=freeze)
        assert diagnosis.verdict == VERDICT_DEADLOCK
        assert diagnosis.blocked_channels
        assert diagnosis.pending_ops

    def test_partition_verdict(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        adv = ChannelAdversary()
        world.adversary = adv
        world.invoke_write(handle.writer_ids[0], 1)
        adv.start_partition(Partition.isolate([handle.writer_ids[0]]))
        diagnosis = diagnose_stall(world, quorum=handle.params["quorum"])
        assert diagnosis.verdict == VERDICT_PARTITION
        assert "partition" in diagnosis.summary()

    def test_quorum_verdict(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.crash("s000")
        world.crash("s001")  # over budget: 1 live < quorum 2
        world.invoke_write(handle.writer_ids[0], 1)
        world.deliver_all()
        diagnosis = diagnose_stall(world, quorum=handle.params["quorum"])
        assert diagnosis.verdict == VERDICT_QUORUM
        assert len(diagnosis.live_servers) == 1

    def test_budget_verdict(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        diagnosis = diagnose_stall(handle.world, budget_exhausted=True)
        assert diagnosis.verdict == VERDICT_BUDGET


class TestLivenessWatchdog:
    def test_tick_budget_raises_structured_error(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        watchdog = LivenessWatchdog(handle.world, max_ticks=5)
        with pytest.raises(StuckExecutionError) as info:
            for _ in range(10):
                watchdog.tick()
        assert info.value.diagnosis.verdict == VERDICT_BUDGET

    def test_stalled_returns_exception_with_diagnosis(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.crash("s000")
        world.crash("s001")
        world.invoke_write(handle.writer_ids[0], 1)
        world.deliver_all()
        watchdog = LivenessWatchdog(world, quorum=handle.params["quorum"])
        error = watchdog.stalled()
        assert isinstance(error, StuckExecutionError)
        assert error.diagnosis.verdict == VERDICT_QUORUM


class TestDiagnosisJson:
    @staticmethod
    def _deadlock():
        handle = build_abd_system(n=3, f=1, value_bits=4)
        handle.world.invoke_write(handle.writer_ids[0], 1)
        freeze = ChannelFilter.freeze_process(handle.writer_ids[0])
        return diagnose_stall(handle.world, channel_filter=freeze)

    def test_round_trip_through_json(self):
        diagnosis = self._deadlock()
        text = json.dumps(diagnosis.to_json_dict())
        assert Diagnosis.from_json_dict(json.loads(text)) == diagnosis

    def test_byzantine_servers_default_to_none(self):
        data = self._deadlock().to_json_dict()
        del data["byzantine_servers"]
        assert Diagnosis.from_json_dict(data).byzantine_servers == ()

    @pytest.mark.parametrize(
        "field",
        ["verdict", "detail", "step", "pending_ops", "blocked_channels",
         "undelivered", "live_servers"],
    )
    def test_missing_field_raises_a_typed_error_naming_it(self, field):
        data = self._deadlock().to_json_dict()
        del data[field]
        with pytest.raises(ConfigurationError, match=field):
            Diagnosis.from_json_dict(data)
