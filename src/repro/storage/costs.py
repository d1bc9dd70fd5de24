"""Point-in-time storage measurement for the upper-bound experiments.

Each server class exposes ``storage_bits(count_metadata)``; these
helpers snapshot and track the peak of that quantity while a workload
runs — giving the measured versions of the paper's upper-bound curves
(``f+1`` for replication, ``ν·N/(N-f)`` for erasure coding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.registers.base import SystemHandle


@dataclass(frozen=True)
class StorageSnapshot:
    """Per-server and aggregate stored bits at one point."""

    per_server_bits: tuple
    step: int

    @property
    def total_bits(self) -> float:
        """Sum over servers."""
        return sum(self.per_server_bits)

    @property
    def max_bits(self) -> float:
        """Largest single server."""
        return max(self.per_server_bits)

    def normalized_total(self, value_bits: int) -> float:
        """Total divided by ``log2 |V|`` (the paper's y-axis)."""
        return self.total_bits / value_bits

    def normalized_max(self, value_bits: int) -> float:
        """Max divided by ``log2 |V|``."""
        return self.max_bits / value_bits


def storage_snapshot(
    handle: SystemHandle, count_metadata: bool = False
) -> StorageSnapshot:
    """Snapshot stored bits right now."""
    return StorageSnapshot(
        per_server_bits=tuple(handle.server_storage_bits(count_metadata)),
        step=handle.world.step_count,
    )


def peak_storage_during(
    handle: SystemHandle,
    drive: Callable[[SystemHandle], None],
    count_metadata: bool = False,
    max_steps: int = 200_000,
) -> StorageSnapshot:
    """Run ``drive`` while sampling storage after every simulator step.

    ``drive`` performs invocations and *must not* step the world to
    completion itself; instead it should invoke operations and return.
    This helper then steps the world until no channel is enabled,
    sampling stored bits after every step, and returns the peak-total
    snapshot (the earliest, on ties).  At most ``max_steps`` deliveries
    are executed: a system that drains in exactly ``max_steps``
    returns, one that needs more raises.

    Server state changes only inside ``deliver``, ``invoke_*`` and
    ``recover`` (the invariant :class:`~repro.obs.recorder.SimObserver`
    relies on too), and this loop only delivers.  So each step re-reads
    the receiver's bits alone, re-sums in server order only when they
    changed, and builds a snapshot only on a new peak.
    """
    drive(handle)
    world = handle.world
    processes = world.processes
    position = {pid: i for i, pid in enumerate(handle.server_ids)}
    peak = storage_snapshot(handle, count_metadata)
    bits = list(peak.per_server_bits)
    peak_total = peak.total_bits
    for _ in range(max_steps):
        record = world.step()
        if record is None:
            return peak
        i = position.get(record.dst)
        if i is None:
            continue
        value = processes[record.dst].storage_bits(count_metadata)
        if value == bits[i]:
            continue
        bits[i] = value
        total = sum(bits)
        if total > peak_total:
            peak_total = total
            peak = StorageSnapshot(tuple(bits), world.step_count)
    if world.enabled_keys():
        raise RuntimeError(f"workload did not quiesce within {max_steps} steps")
    return peak
