"""Tests for point-in-time storage measurement."""

import functools

import pytest

from repro.registers.abd import build_abd_system
from repro.registers.cas import build_cas_system
from repro.registers.casgc import build_casgc_system
from repro.sim.network import World
from repro.sim.scheduler import RandomScheduler
from repro.storage.costs import peak_storage_during, storage_snapshot
from repro.workload.patterns import concurrent_writes_driver, staggered_writes_driver


class TestSnapshot:
    def test_snapshot_shape(self):
        handle = build_abd_system(n=4, f=1, value_bits=8)
        snap = storage_snapshot(handle)
        assert len(snap.per_server_bits) == 4
        assert snap.total_bits == 32.0
        assert snap.max_bits == 8.0

    def test_normalization(self):
        handle = build_abd_system(n=4, f=1, value_bits=8)
        snap = storage_snapshot(handle)
        assert snap.normalized_total(8) == 4.0
        assert snap.normalized_max(8) == 1.0

    def test_metadata_flag(self):
        handle = build_abd_system(n=4, f=1, value_bits=8)
        with_meta = storage_snapshot(handle, count_metadata=True)
        without = storage_snapshot(handle, count_metadata=False)
        assert with_meta.total_bits > without.total_bits


class TestPeakDuring:
    def test_abd_peak_flat(self):
        """ABD's peak equals its resting cost: N values, any concurrency."""
        handle = build_abd_system(n=4, f=1, value_bits=8, num_writers=3)
        peak = peak_storage_during(
            handle, concurrent_writes_driver([1, 2, 3])
        )
        assert peak.normalized_total(8) == 4.0

    def test_cas_peak_grows_with_concurrency(self):
        handle1 = build_cas_system(n=5, f=1, value_bits=12, num_writers=1)
        peak1 = peak_storage_during(handle1, concurrent_writes_driver([1]))
        handle3 = build_cas_system(n=5, f=1, value_bits=12, num_writers=3)
        peak3 = peak_storage_during(
            handle3, concurrent_writes_driver([1, 2, 3])
        )
        assert peak3.total_bits > peak1.total_bits

    def test_all_operations_complete(self):
        handle = build_abd_system(n=4, f=1, value_bits=8, num_writers=2)
        peak_storage_during(handle, concurrent_writes_driver([1, 2]))
        assert not handle.world.pending_operations()

    def test_driver_with_too_many_values_rejected(self):
        from repro.errors import ConfigurationError

        handle = build_abd_system(n=4, f=1, value_bits=8, num_writers=1)
        with pytest.raises(ConfigurationError):
            peak_storage_during(handle, concurrent_writes_driver([1, 2]))


class TestStepBudget:
    """An ABD n=3 f=1 write drains in 12 deliveries (see
    ``tests/sim/test_hot_path.py::TestDeliverAllBudget``)."""

    DRAIN = 12

    def _peak(self, max_steps):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        self.world = handle.world
        return peak_storage_during(
            handle, concurrent_writes_driver([3]), max_steps=max_steps
        )

    def test_budget_equal_to_drain_count_returns(self):
        self._peak(self.DRAIN)
        assert self.world.step_count == 1 + self.DRAIN  # invoke + deliveries
        assert self.world.undelivered_channels() == []

    def test_budget_one_short_raises_after_exactly_that_many(self):
        with pytest.raises(RuntimeError, match="within 11 steps"):
            self._peak(self.DRAIN - 1)
        assert self.world.step_count == 1 + self.DRAIN - 1
        assert self.world.undelivered_channels() != []


def _rescan_peak(handle, drive, count_metadata):
    """The full-rescan sampler: every server's bits after every step."""
    drive(handle)
    world = handle.world
    peak = storage_snapshot(handle, count_metadata)
    while world.pending_operations() or world.enabled_channels():
        if world.step() is None:
            break
        snap = storage_snapshot(handle, count_metadata)
        if snap.total_bits > peak.total_bits:
            peak = snap
    final = storage_snapshot(handle, count_metadata)
    if final.total_bits > peak.total_bits:
        peak = final
    return peak


BUILDERS = {
    "abd": build_abd_system,
    "cas": build_cas_system,
    "casgc1": functools.partial(build_casgc_system, gc_depth=1),
    "casgc2": functools.partial(build_casgc_system, gc_depth=2),
}
DRIVERS = {
    "concurrent": concurrent_writes_driver,
    "staggered": staggered_writes_driver,
}


@pytest.mark.parametrize("randomized", (False, True), ids=("round-robin", "random"))
@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("n", (5, 7, 11))
@pytest.mark.parametrize("algorithm", sorted(BUILDERS))
def test_receiver_only_sampler_matches_full_rescan(algorithm, n, driver, randomized):
    """Same peak snapshot, per-server tuple and step as the full rescan.

    Round-robin delivery keeps the servers in step, so every peak there
    is symmetric; a seeded random schedule gives uneven per-server
    tuples, which pins their order too.
    """
    build, drive = BUILDERS[algorithm], DRIVERS[driver]
    f = (n - 1) // 2
    for nu in range(1, 7):
        values = list(range(1, nu + 1))
        for count_metadata in (False, True):
            reference, sampled = (
                sampler(
                    build(
                        n=n, f=f, value_bits=12, num_writers=nu,
                        world=World(RandomScheduler(nu)) if randomized else None,
                    ),
                    drive(values),
                    count_metadata,
                )
                for sampler in (_rescan_peak, peak_storage_during)
            )
            assert sampled == reference, (nu, count_metadata)
