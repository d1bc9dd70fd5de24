"""The ABD replication algorithm (Attiya, Bar-Noy, Dolev [3]).

Multi-writer multi-reader atomic register over ``N`` servers tolerating
``f < N/2`` crash failures, quorum size ``N - f``.

* **Server state:** the highest tag seen and its full value — one value
  of storage per server, independent of concurrency (the flat ``f+1``
  line in Figure 1 when deployed on the minimum ``f+1``-server
  configuration; on ``N`` servers total storage is ``N`` values).
* **Write:** phase 1 queries a quorum for the highest tag; phase 2
  sends ``(tag+1, value)`` to all and awaits a quorum of acks.  Only
  phase 2 is value-dependent, and all actions are black-box — ABD lies
  inside the class of Theorem 6.5 (the paper says so explicitly).
* **Read:** phase 1 queries a quorum and selects the max ``(tag,
  value)``; phase 2 writes that pair back to a quorum before returning
  (the write-back is what upgrades regularity to atomicity).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.registers.base import (
    QuorumClient,
    SystemHandle,
    quorum_size,
    reader_id,
    server_id,
    validate_system_params,
    writer_id,
)
from repro.registers.tags import INITIAL_TAG, Tag
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ProcessContext, ServerProcess, require_payload

#: Nominal metadata bits per stored tag (seq counter + client id); the
#: paper treats all such costs as o(log |V|).
TAG_METADATA_BITS = 64


class ABDServer(ServerProcess):
    """Stores the highest-tagged ``(tag, value)`` pair seen so far."""

    #: Replies go to the sender; no handler reads its own id.
    opaque_server_ids = True

    def __init__(self, pid: str, value_bits: int, initial_value: int = 0) -> None:
        super().__init__(pid)
        self.value_bits = value_bits
        self.tag: Tag = INITIAL_TAG
        self.value: int = initial_value

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if message.kind == "get":
            ctx.send(
                src,
                Message.make(
                    "get-ack",
                    ref=require_payload(message, "ref"),
                    tag=self.tag.as_tuple(),
                    value=self.value,
                ),
            )
        elif message.kind == "put":
            tag = Tag.from_tuple(require_payload(message, "tag"))
            if tag > self.tag:
                self.tag = tag
                self.value = require_payload(message, "value")
            ctx.send(
                src,
                Message.make("put-ack", ref=require_payload(message, "ref")),
            )
        else:
            raise SimulationError(f"ABD server got unknown message {message!r}")

    def state_digest(self) -> tuple:
        return (self.tag.as_tuple(), self.value)

    def storage_bits(self, count_metadata: bool = False) -> float:
        """One full value, plus tag metadata if requested."""
        bits = float(self.value_bits)
        if count_metadata:
            bits += TAG_METADATA_BITS
        return bits


class ABDWriteClient(QuorumClient):
    """Two-phase ABD writer."""

    #: A phase goes to every server and counts distinct responders, so
    #: digests hold responder sets as frozensets.
    opaque_server_ids = True
    PHASES = ("write/query", "write/propagate")

    def __init__(
        self,
        pid: str,
        server_ids: Tuple[str, ...],
        quorum: int,
        byzantine_budget: int = 0,
    ) -> None:
        super().__init__(pid, server_ids, quorum, byzantine_budget)
        self.pending_value: Optional[int] = None
        self.max_tag: Tag = INITIAL_TAG

    def start_write(self, ctx: ProcessContext, op_id: int, value: int) -> None:
        self.pending_value = value
        self.max_tag = INITIAL_TAG
        self._enter(ctx, 1, "get")

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if not self._accept_ack(src, message):
            return
        if self.phase == 1 and message.kind == "get-ack":
            tag = Tag.from_tuple(message.get("tag"))
            if tag > self.max_tag:
                self.max_tag = tag
            if len(self.responded) >= self.ack_target:
                new_tag = self.max_tag.next_for(self.pid)
                self._enter(
                    ctx, 2, "put", tag=new_tag.as_tuple(), value=self.pending_value
                )
        elif self.phase == 2 and message.kind == "put-ack":
            if len(self.responded) >= self.ack_target:
                self.pending_value = None
                self._finish(ctx)

    def state_digest(self) -> tuple:
        return (
            self.phase,
            self.phase_nonce,
            frozenset(self.responded),
            self.pending_value,
            self.max_tag.as_tuple(),
            self.pending_op_id,
        )


class ABDReadClient(QuorumClient):
    """Two-phase ABD reader (phase 2 write-back gives atomicity).

    With ``write_back=False`` the read returns after phase 1; the
    register is then only *regular* — the configuration used by the
    SWSR lower-bound experiments.

    With ``byzantine_budget=b > 0`` the reader collects ``q + b``
    responses and *validates* before choosing: it picks the highest
    tag whose ``(tag, value)`` pair is confirmed by at least ``b + 1``
    responders (any completed write reaches ``b + 1`` honest servers of
    every escalated quorum, see
    :class:`~repro.registers.base.QuorumClient`; at most ``b`` corrupt
    responders can never forge that count).  Responses sharing the
    chosen tag but reporting a different value are proof-positive
    corruption — tags are writer-unique, honest servers store what the
    writer sent — and are counted on ``byz_detected`` (surfaced as the
    run's ``Degraded`` verdict and the ``faults.byzantine.detected`` /
    ``masked`` counters).  If no pair reaches ``b + 1`` confirmations
    (possible only under concurrent writes still in flight) the reader
    falls back to the plain max-tag choice and counts
    ``byz_unconfirmed``.
    """

    opaque_server_ids = True
    PHASES = ("read/query", "read/write-back")

    def __init__(
        self,
        pid: str,
        server_ids: Tuple[str, ...],
        quorum: int,
        write_back: bool = True,
        byzantine_budget: int = 0,
    ) -> None:
        super().__init__(pid, server_ids, quorum, byzantine_budget)
        self.write_back = write_back
        self.best_tag: Tag = INITIAL_TAG
        self.best_value: int = 0
        self.have_best = False
        #: src -> (tag tuple, value); collected only when validating.
        self.acks: dict = {}
        self.byz_detected = 0
        self.byz_unconfirmed = 0

    def start_read(self, ctx: ProcessContext, op_id: int) -> None:
        self.best_tag = INITIAL_TAG
        self.best_value = 0
        self.have_best = False
        self.acks = {}
        self._enter(ctx, 1, "get")

    def _select_validated(self, ctx: ProcessContext) -> None:
        """Byzantine-tolerant candidate selection over collected acks."""
        if ctx.obs:
            ctx.obs.begin_span(self.pid, "read/validate", ctx.step)
        counts: dict = {}
        for pair in self.acks.values():
            counts[pair] = counts.get(pair, 0) + 1
        confirmed = [
            pair for pair, c in counts.items() if c > self.byzantine_budget
        ]
        if confirmed:
            tag_tuple, value = max(
                confirmed, key=lambda p: (Tag.from_tuple(p[0]), p[1])
            )
            self.best_tag = Tag.from_tuple(tag_tuple)
            self.best_value = value
            self.have_best = True
        else:
            self.byz_unconfirmed += 1
            if ctx.obs:
                ctx.obs.registry.inc("faults.byzantine.unconfirmed")
        conflicts = sum(
            1
            for pair in self.acks.values()
            if pair[0] == self.best_tag.as_tuple() and pair[1] != self.best_value
        )
        if conflicts:
            self.byz_detected += conflicts
            if ctx.obs:
                ctx.obs.registry.inc("faults.byzantine.detected", conflicts)
                ctx.obs.registry.inc("faults.byzantine.masked", conflicts)
        if ctx.obs:
            ctx.obs.end_span(self.pid, "read/validate", ctx.step)

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if not self._accept_ack(src, message):
            return
        if self.phase == 1 and message.kind == "get-ack":
            tag = Tag.from_tuple(message.get("tag"))
            if self.byzantine_budget:
                self.acks[src] = (message.get("tag"), message.get("value"))
            if not self.have_best or tag > self.best_tag:
                self.have_best = True
                self.best_tag = tag
                self.best_value = message.get("value")
            if len(self.responded) >= self.ack_target:
                if self.byzantine_budget:
                    self._select_validated(ctx)
                if self.write_back:
                    self._enter(
                        ctx, 2, "put",
                        tag=self.best_tag.as_tuple(), value=self.best_value,
                    )
                else:
                    self._finish(ctx, self.best_value)
        elif self.phase == 2 and message.kind == "put-ack":
            if len(self.responded) >= self.ack_target:
                self._finish(ctx, self.best_value)

    def state_digest(self) -> tuple:
        return (
            self.phase,
            self.phase_nonce,
            frozenset(self.responded),
            self.best_tag.as_tuple(),
            self.best_value,
            self.have_best,
            self.pending_op_id,
            frozenset(self.acks.items()),
            self.byz_detected,
            self.byz_unconfirmed,
        )


def build_abd_system(
    n: int,
    f: int,
    value_bits: int = 8,
    num_writers: int = 1,
    num_readers: int = 1,
    initial_value: int = 0,
    read_write_back: bool = True,
    byzantine_budget: int = 0,
    world: Optional[World] = None,
) -> SystemHandle:
    """Build a World running ABD and wrap it in a :class:`SystemHandle`.

    ``byzantine_budget=b`` escalates every quorum to ``q + b`` and turns
    on reader-side response validation, masking up to ``b`` corrupt
    servers (see :class:`ABDReadClient`).  Needs ``q + b <= n``, i.e.
    ``b <= f`` for the majority quorum.
    """
    validate_system_params(n, f, value_bits, num_writers, num_readers)
    q = quorum_size(n, f)
    if byzantine_budget < 0:
        raise ConfigurationError(
            f"byzantine_budget must be >= 0; got {byzantine_budget}"
        )
    if q + byzantine_budget > n:
        raise ConfigurationError(
            f"escalated quorum {q}+{byzantine_budget} exceeds n={n}; "
            f"ABD tolerates byzantine_budget <= {n - q}"
        )
    w = world or World()
    server_ids = [server_id(i) for i in range(n)]
    for sid in server_ids:
        w.add_process(ABDServer(sid, value_bits, initial_value))
    sid_tuple = tuple(server_ids)
    writer_ids = [writer_id(i) for i in range(num_writers)]
    for pid in writer_ids:
        w.add_process(
            ABDWriteClient(pid, sid_tuple, q, byzantine_budget)
        )
    reader_ids = [reader_id(i) for i in range(num_readers)]
    for pid in reader_ids:
        w.add_process(
            ABDReadClient(
                pid, sid_tuple, q, read_write_back, byzantine_budget
            )
        )
    return SystemHandle(
        world=w,
        algorithm="abd",
        n=n,
        f=f,
        value_bits=value_bits,
        server_ids=server_ids,
        writer_ids=writer_ids,
        reader_ids=reader_ids,
        params={
            "quorum": q,
            "read_write_back": read_write_back,
            "byzantine_budget": byzantine_budget,
        },
    )
