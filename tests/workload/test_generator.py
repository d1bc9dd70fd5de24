"""Tests for workload drivers."""

import pytest

from repro.consistency.atomicity import check_atomicity
from repro.errors import ConfigurationError
from repro.registers.abd import build_abd_system
from repro.registers.cas import build_cas_system
from repro.workload.generator import run_random_workload, run_sequential_workload


class TestSequential:
    def test_history_shape(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        result = run_sequential_workload(handle, [1, 2, 3], read_every=1)
        assert len(result.history.writes()) == 3
        assert len(result.history.reads()) == 3
        assert all(op.is_complete for op in result.history)

    def test_reads_see_latest(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        result = run_sequential_workload(handle, [5, 9], read_every=1)
        reads = result.history.reads()
        assert [r.value for r in reads] == [5, 9]

    def test_read_every_zero_means_no_reads(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        result = run_sequential_workload(handle, [1, 2], read_every=0)
        assert not result.history.reads()

    def test_steps_counted(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        result = run_sequential_workload(handle, [1])
        assert result.steps > 0


class TestRandom:
    def test_deterministic_for_seed(self):
        r1 = run_random_workload(
            build_abd_system(n=3, f=1, value_bits=4, num_writers=2, num_readers=2),
            num_ops=10,
            seed=7,
        )
        r2 = run_random_workload(
            build_abd_system(n=3, f=1, value_bits=4, num_writers=2, num_readers=2),
            num_ops=10,
            seed=7,
        )
        ops1 = [(o.kind, o.value, o.client) for o in r1.operations]
        ops2 = [(o.kind, o.value, o.client) for o in r2.operations]
        assert ops1 == ops2

    def test_all_operations_complete(self):
        result = run_random_workload(
            build_abd_system(n=3, f=1, value_bits=4, num_writers=2, num_readers=2),
            num_ops=12,
            seed=1,
        )
        assert all(op.is_complete for op in result.operations)
        assert len(result.operations) == 12

    def test_produces_atomic_history_on_abd(self):
        result = run_random_workload(
            build_abd_system(n=3, f=1, value_bits=3, num_writers=2, num_readers=2),
            num_ops=10,
            seed=3,
        )
        assert check_atomicity(result.operations).ok

    def test_read_fraction_extremes(self):
        only_writes = run_random_workload(
            build_abd_system(n=3, f=1, value_bits=4, num_writers=2),
            num_ops=6,
            seed=1,
            read_fraction=0.0,
        )
        assert not only_writes.history.reads()
        only_reads = run_random_workload(
            build_abd_system(n=3, f=1, value_bits=4, num_readers=2),
            num_ops=6,
            seed=1,
            read_fraction=1.0,
        )
        assert not only_reads.history.writes()

    def test_invalid_read_fraction(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        with pytest.raises(ConfigurationError):
            run_random_workload(handle, num_ops=2, read_fraction=1.5)

    def test_cas_random_workload_atomic(self):
        result = run_random_workload(
            build_cas_system(
                n=5, f=1, value_bits=8, num_writers=2, num_readers=2
            ),
            num_ops=8,
            seed=11,
        )
        assert check_atomicity(result.operations).ok
