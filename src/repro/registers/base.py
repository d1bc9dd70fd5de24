"""Common scaffolding for register systems.

A *register system* is a World populated with ``N`` servers, some
writers and some readers running one algorithm's protocols.
:class:`SystemHandle` wraps that World with a convenient synchronous
facade (``write`` / ``read`` run an operation to completion under a
fair scheduler) while leaving the World fully exposed for the
adversarial drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.events import OperationRecord
from repro.sim.network import World
from repro.sim.scheduler import ChannelFilter


def quorum_size(n: int, f: int) -> int:
    """Quorum size ``n - f`` for majority-style algorithms.

    Safety (any two quorums intersect) needs ``2(n - f) > n``, i.e.
    ``n > 2f``; liveness (a quorum of non-failed servers exists) needs
    quorums no larger than ``n - f``.  Both hold exactly when
    ``n >= 2f + 1``.
    """
    if n < 2 * f + 1:
        raise ConfigurationError(
            f"majority quorums need N >= 2f+1; got N={n}, f={f}"
        )
    return n - f


def server_id(i: int) -> str:
    """Canonical server process id (zero-padded so ids sort numerically)."""
    return f"s{i:03d}"


def writer_id(i: int) -> str:
    """Canonical writer process id."""
    return f"w{i:03d}"


def reader_id(i: int) -> str:
    """Canonical reader process id."""
    return f"r{i:03d}"


@dataclass
class SystemHandle:
    """A built register system plus a synchronous operation facade."""

    world: World
    algorithm: str
    n: int
    f: int
    value_bits: int
    server_ids: List[str]
    writer_ids: List[str]
    reader_ids: List[str]
    params: dict = field(default_factory=dict)

    @property
    def value_space_size(self) -> int:
        """``|V|``."""
        return 1 << self.value_bits

    def write(
        self,
        value: int,
        writer: Optional[str] = None,
        channel_filter: Optional[ChannelFilter] = None,
        max_steps: int = 100_000,
    ) -> OperationRecord:
        """Invoke a write and step fairly until it responds."""
        pid = writer or self.writer_ids[0]
        record = self.world.invoke_write(pid, value)
        return self.world.run_op_to_completion(record, channel_filter, max_steps)

    def read(
        self,
        reader: Optional[str] = None,
        channel_filter: Optional[ChannelFilter] = None,
        max_steps: int = 100_000,
    ) -> OperationRecord:
        """Invoke a read and step fairly until it responds."""
        pid = reader or self.reader_ids[0]
        record = self.world.invoke_read(pid)
        return self.world.run_op_to_completion(record, channel_filter, max_steps)

    def crash_servers(self, indices: Sequence[int]) -> None:
        """Crash servers by index (0-based)."""
        for i in indices:
            self.world.crash(self.server_ids[i])

    def surviving_server_ids(self) -> List[str]:
        """Non-failed server ids."""
        return [
            pid for pid in self.server_ids if not self.world.processes[pid].failed
        ]

    def server_storage_bits(self, count_metadata: bool = False) -> List[float]:
        """Per-server stored bits at the current point.

        Delegates to each server's ``storage_bits``; with
        ``count_metadata=False`` only value-derived bits are counted,
        matching the paper's normalization (metadata is o(log |V|)).
        """
        return [
            self.world.processes[pid].storage_bits(count_metadata)  # type: ignore[attr-defined]
            for pid in self.server_ids
        ]

    def total_storage_bits(self, count_metadata: bool = False) -> float:
        """Sum of per-server stored bits at the current point."""
        return sum(self.server_storage_bits(count_metadata))

    def normalized_total_storage(self) -> float:
        """Total stored value-bits divided by ``log2 |V|`` (paper's unit)."""
        return self.total_storage_bits(count_metadata=False) / self.value_bits

    def normalized_max_storage(self) -> float:
        """Largest per-server stored value-bits divided by ``log2 |V|``."""
        return max(self.server_storage_bits(count_metadata=False)) / self.value_bits


def validate_system_params(
    n: int, f: int, value_bits: int, num_writers: int, num_readers: int
) -> None:
    """Shared constructor validation for all algorithms."""
    if n < 1:
        raise ConfigurationError(f"need at least one server, got N={n}")
    if f < 0 or f >= n:
        raise ConfigurationError(f"need 0 <= f < N, got N={n}, f={f}")
    if value_bits < 1:
        raise ConfigurationError(f"need value_bits >= 1, got {value_bits}")
    if num_writers < 1:
        raise ConfigurationError("need at least one writer")
    if num_readers < 1:
        raise ConfigurationError("need at least one reader")
