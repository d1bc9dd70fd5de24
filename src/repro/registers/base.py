"""Common scaffolding for register systems.

A *register system* is a World populated with ``N`` servers, some
writers and some readers running one algorithm's protocols.
:class:`SystemHandle` wraps that World with a convenient synchronous
facade (``write`` / ``read`` run an operation to completion under a
fair scheduler) while leaving the World fully exposed for the
adversarial drivers.  Every client runs its protocol's phases through
:class:`QuorumClient`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.events import Message, OperationRecord
from repro.sim.network import World
from repro.sim.process import ClientProcess, ProcessContext
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


class QuorumClient(ClientProcess):
    """A client whose operations are numbered quorum *phases*.

    In each phase (Definition 6.1 of the paper) the client sends one
    message to every server and waits for acknowledgements from
    ``ack_target`` distinct servers.  This class owns what every
    register protocol here shares:

    * the phase number (0 between operations) and a nonce per phase;
      every request carries ``ref = (pid, nonce)`` and every reply
      quotes it, so :meth:`_accept_ack` keeps only replies to the
      current phase, one per server;
    * the broadcast: :meth:`_enter` sends one body to every server, or
      with ``elems`` coded element ``i`` to server ``i``;
    * the phase spans: phase ``p`` is named ``PHASES[p - 1]``; entering
      a phase ends the previous phase's span and begins its own, and
      :meth:`_finish` ends the last one;
    * for a writer-only or reader-only class, the other operation's
      entry point, which raises :class:`~repro.errors.SimulationError`.

    ``byzantine_budget=b`` raises the ack target from the crash quorum
    ``q`` to ``q + b``: any two such quorums then intersect in at least
    ``N - 2f + b`` servers, of which at least ``N - 2f >= 1`` are
    honest even after discounting ``b`` corrupt responders — the margin
    the readers' validation needs (``b <= f``, enforced by the
    builders).
    """

    #: Span name of each phase, phase 1 first.
    PHASES: Tuple[str, ...] = ()

    def __init__(
        self,
        pid: str,
        server_ids: Tuple[str, ...],
        quorum: int,
        byzantine_budget: int = 0,
    ) -> None:
        super().__init__(pid)
        self.server_ids = server_ids
        self.quorum = quorum
        self.byzantine_budget = byzantine_budget
        self.ack_target = quorum + byzantine_budget
        self.phase: int = 0
        self.phase_nonce: int = 0
        self.responded: Set[str] = set()

    def start_write(self, ctx: ProcessContext, op_id: int, value: int) -> None:
        raise SimulationError(f"{type(self).__name__} {self.pid} cannot write")

    def start_read(self, ctx: ProcessContext, op_id: int) -> None:
        raise SimulationError(f"{type(self).__name__} {self.pid} cannot read")

    def _ref(self) -> tuple:
        return (self.pid, self.phase_nonce)

    def _enter(
        self,
        ctx: ProcessContext,
        phase: int,
        kind: str,
        elems: Optional[Iterable[int]] = None,
        **body,
    ) -> None:
        """Enter ``phase`` and send its ``kind`` request to every server.

        The request body is built once and each server gets its own
        :class:`Message` (a trace keys each send by the message object);
        with ``elems``, server ``i`` also gets the ``i``-th of them as
        ``elem``.
        """
        obs = ctx.obs
        if obs:
            if self.phase:
                obs.end_span(self.pid, self.PHASES[self.phase - 1], ctx.step)
            obs.begin_span(
                self.pid, self.PHASES[phase - 1], ctx.step, op_id=self.pending_op_id
            )
        self.phase = phase
        self.phase_nonce += 1
        self.responded = set()
        ref = self._ref()
        send = ctx.send
        if elems is None:
            fields = Message.make(kind, ref=ref, **body).body
            for sid in self.server_ids:
                send(sid, Message(kind, fields))
        else:
            for sid, elem in zip(self.server_ids, elems):
                send(sid, Message.make(kind, ref=ref, elem=elem, **body))

    def _current(self, message: Message) -> bool:
        """True iff ``message`` answers this pending operation's phase."""
        return self.pending_op_id is not None and message.get("ref") == self._ref()

    def _accept_ack(self, src: str, message: Message) -> bool:
        """True iff ``message`` answers the current phase and is the
        first answer from ``src`` (which it then records)."""
        if (
            self.pending_op_id is None
            or message.get("ref") != self._ref()
            or src in self.responded
        ):
            return False
        self.responded.add(src)
        return True

    def _finish(self, ctx: ProcessContext, value: Optional[int] = None) -> None:
        """End the last phase's span and complete the operation."""
        if ctx.obs:
            ctx.obs.end_span(self.pid, self.PHASES[self.phase - 1], ctx.step)
        self.phase = 0
        self.finish(ctx, value)


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
