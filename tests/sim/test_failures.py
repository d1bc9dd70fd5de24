"""Permanent crash failures: servers crashed at the start of an execution.

The lower-bound executions crash a fixed set of servers before any
other action (Section 4.3.1) with ``World.crash``; timed crashes go
through :class:`repro.faults.recovery.CrashRecoverySchedule`
(``tests/faults/test_recovery.py``).
"""

import pytest

from repro.errors import OperationIncompleteError
from repro.registers.abd import build_abd_system


def _crash(handle, pids):
    for pid in pids:
        handle.world.crash(pid)


class TestFailInitial:
    def test_crashes_named(self):
        handle = build_abd_system(n=5, f=2, value_bits=4)
        _crash(handle, ["s003", "s004"])
        assert handle.surviving_server_ids() == ["s000", "s001", "s002"]

    def test_crash_recorded_in_trace(self):
        handle = build_abd_system(n=5, f=2, value_bits=4)
        _crash(handle, ["s000"])
        assert any(a.kind == "crash" and a.src == "s000" for a in handle.world.trace)


class TestLivenessUnderFailures:
    def test_abd_survives_f_failures(self):
        handle = build_abd_system(n=5, f=2, value_bits=4)
        _crash(handle, ["s000", "s001"])
        handle.write(9)
        assert handle.read().value == 9

    def test_abd_blocks_beyond_f_failures(self):
        handle = build_abd_system(n=5, f=2, value_bits=4)
        _crash(handle, ["s000", "s001", "s002"])
        with pytest.raises(OperationIncompleteError):
            handle.write(9, max_steps=1000)
