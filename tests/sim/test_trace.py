"""Observed ν of an execution trace: the peak number of active writes.

The trace of a run is its World's operation records;
:func:`repro.obs.analytics.max_concurrent_writes` reads the observed ν
off them.
"""

from repro.obs.analytics import max_concurrent_writes
from repro.sim.events import OperationRecord


def op(op_id, kind, invoke, response=None, client="c", value=1):
    return OperationRecord(
        op_id=op_id,
        client=client,
        kind=kind,
        value=value,
        invoke_step=invoke,
        response_step=response,
    )


class TestActiveWrites:
    def test_no_writes(self):
        assert max_concurrent_writes([op(0, "read", 1, 5)]) == 0

    def test_sequential_writes(self):
        ops = [op(0, "write", 1, 3), op(1, "write", 5, 8)]
        assert max_concurrent_writes(ops) == 1

    def test_overlapping_writes(self):
        ops = [op(0, "write", 1, 10), op(1, "write", 2, 9), op(2, "write", 3, 8)]
        assert max_concurrent_writes(ops) == 3

    def test_incomplete_write_stays_active(self):
        assert max_concurrent_writes([op(0, "write", 2, None)]) == 1
        # It overlaps every later write, however late.
        ops = [op(0, "write", 2, None), op(1, "write", 1000, 1001)]
        assert max_concurrent_writes(ops) == 2
