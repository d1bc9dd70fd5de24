"""Tests for register system scaffolding."""

import pytest

from repro.consistency.history import History
from repro.errors import ConfigurationError
from repro.registers.abd import build_abd_system
from repro.registers.base import quorum_size, reader_id, server_id, writer_id


class TestQuorumSize:
    def test_majority_configs(self):
        assert quorum_size(5, 2) == 3
        assert quorum_size(3, 1) == 2
        assert quorum_size(21, 10) == 11

    def test_intersecting(self):
        for n, f in [(3, 1), (5, 2), (7, 3), (9, 2)]:
            q = quorum_size(n, f)
            assert 2 * q > n  # safety: any two quorums intersect
            assert q <= n - f  # liveness: a live quorum exists

    def test_too_many_failures_rejected(self):
        with pytest.raises(ConfigurationError):
            quorum_size(4, 2)

    def test_zero_failures(self):
        assert quorum_size(3, 0) == 3


class TestIds:
    def test_sortable_ids(self):
        ids = [server_id(i) for i in (0, 2, 10, 100)]
        assert ids == sorted(ids)

    def test_disjoint_namespaces(self):
        assert server_id(0) != writer_id(0) != reader_id(0)


class TestSystemHandle:
    def test_value_space_size(self):
        handle = build_abd_system(n=3, f=1, value_bits=6)
        assert handle.value_space_size == 64

    def test_write_read_facade(self):
        handle = build_abd_system(n=3, f=1, value_bits=6)
        record = handle.write(11)
        assert record.is_complete
        assert handle.read().value == 11

    def test_crash_servers_by_index(self):
        handle = build_abd_system(n=3, f=1, value_bits=6)
        handle.crash_servers([2])
        assert handle.surviving_server_ids() == ["s000", "s001"]

    def test_trace_capture(self):
        handle = build_abd_system(n=3, f=1, value_bits=6)
        handle.write(1)
        history = History.from_world(handle.world)
        assert [op.kind for op in history.completed()] == ["write"]

    def test_storage_bits_vector_length(self):
        handle = build_abd_system(n=4, f=1, value_bits=6)
        assert len(handle.server_storage_bits()) == 4

    def test_normalized_storage_abd_is_n(self):
        handle = build_abd_system(n=4, f=1, value_bits=6)
        assert handle.normalized_total_storage() == 4.0
        assert handle.normalized_max_storage() == 1.0

    def test_metadata_counting_increases_bits(self):
        handle = build_abd_system(n=4, f=1, value_bits=6)
        assert handle.total_storage_bits(True) > handle.total_storage_bits(False)


class TestValidation:
    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            build_abd_system(n=0, f=0)
        with pytest.raises(ConfigurationError):
            build_abd_system(n=3, f=3)
        with pytest.raises(ConfigurationError):
            build_abd_system(n=3, f=1, value_bits=0)
        with pytest.raises(ConfigurationError):
            build_abd_system(n=3, f=1, num_writers=0)
        with pytest.raises(ConfigurationError):
            build_abd_system(n=3, f=1, num_readers=0)
