"""Coded Atomic Storage (CAS) — Cadambe, Lynch, Medard, Musial [5].

An erasure-coded MWMR atomic register.  Each value is encoded with an
``(N, k)`` Reed-Solomon code; server ``i`` only ever receives codeword
symbol ``i``, so per-version storage at a server is ``log2|V| / k``
bits.  Because old versions cannot be discarded until new ones are
propagated, a server accumulates one coded element per concurrent
write — the ``ν``-dependent storage growth the paper's Section 2.3 and
Theorem 6.5 are about.

Protocol structure (faithful to [5]):

* **Write** (3 phases): *query* a quorum for the highest finalized tag;
  *pre-write* the per-server coded elements under a new tag (the single
  value-dependent phase — Assumption 3 of the paper holds); *finalize*
  the tag at a quorum.
* **Read** (2 phases): *query* for the highest finalized tag ``t``;
  request coded elements for ``t`` from all servers and decode once
  ``k`` arrive.  A server that knows ``t`` is finalized but has not yet
  received its element registers the reader and forwards the element
  when it arrives.

Quorums have size ``⌈(N+k)/2⌉``: any two intersect in at least ``k``
servers, and liveness under ``f`` failures needs ``k <= N - 2f``.  Pass
``optimistic=True`` to allow ``k`` up to ``N - f`` (the storage-optimal
rate assumed by the ``νN/(N-f)`` upper-bound curve in Figure 1) at the
price of liveness only in failure-free executions — the configuration
used by the storage-growth benchmarks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

from repro.coding.reed_solomon import ReedSolomonCode
from repro.errors import ConfigurationError, SimulationError
from repro.registers.base import (
    QuorumClient,
    SystemHandle,
    reader_id,
    server_id,
    validate_system_params,
    writer_id,
)
from repro.registers.tags import INITIAL_TAG, Tag
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ProcessContext, ServerProcess, require_payload

#: Nominal metadata bits per stored (tag, label) record.
RECORD_METADATA_BITS = 66

#: Label constants for stored records.
PRE, FIN = "pre", "fin"


def cas_code_for(n: int, k: int, value_bits: int) -> ReedSolomonCode:
    """The RS code CAS uses: symbol width fits both the value and ``n``
    evaluation points."""
    m = max(-(-value_bits // k), max(1, (n - 1).bit_length()))
    while (1 << m) < n:
        m += 1
    return ReedSolomonCode(n, k, m)


def cas_quorum_size(n: int, k: int) -> int:
    """CAS quorum ``⌈(N+k)/2⌉`` — two quorums intersect in ``>= k``."""
    return -(-(n + k) // 2)


class CASServer(ServerProcess):
    """Stores ``tag -> (coded element | None, label)`` records.

    ``gc_depth=None`` disables garbage collection (plain CAS);
    ``gc_depth=δ`` keeps the ``δ+1`` highest finalized tags and
    everything above them (CASGC).
    """

    def __init__(
        self,
        pid: str,
        code: ReedSolomonCode,
        initial_element: int,
        gc_depth: Optional[int] = None,
    ) -> None:
        super().__init__(pid)
        self.code = code
        self.gc_depth = gc_depth
        self.store: Dict[tuple, List] = {
            INITIAL_TAG.as_tuple(): [initial_element, FIN]
        }
        # tag -> list of (reader_pid, ref) awaiting the coded element
        self.pending_readers: Dict[tuple, List[tuple]] = {}
        # Exclusive floor: tags <= gc_floor were pruned (None = nothing pruned)
        self.gc_floor: Optional[tuple] = None

    # -- helpers ------------------------------------------------------------

    def _max_fin_tag(self) -> tuple:
        fins = [t for t, rec in self.store.items() if rec[1] == FIN]
        return max(fins, key=Tag.from_tuple) if fins else INITIAL_TAG.as_tuple()

    def _serve_pending(self, ctx: ProcessContext, tag: tuple) -> None:
        record = self.store.get(tag)
        if record is None or record[0] is None:
            return
        for reader, ref in self.pending_readers.pop(tag, []):
            ctx.send(
                reader,
                Message.make("read-ack", ref=ref, tag=tag, elem=record[0]),
            )

    def _tag_key(self, tag: tuple) -> Tag:
        return Tag.from_tuple(tag)

    def _collected(self, tag: tuple) -> bool:
        """True iff garbage collection already pruned ``tag``."""
        return self.gc_floor is not None and self._tag_key(tag) <= self._tag_key(
            self.gc_floor
        )

    def _prune(self, ctx: ProcessContext) -> None:
        """CASGC pruning: drop records below the (δ+1)-th finalized tag."""
        if self.gc_depth is None:
            return
        fins = sorted(
            (t for t, rec in self.store.items() if rec[1] == FIN),
            key=self._tag_key,
            reverse=True,
        )
        if len(fins) <= self.gc_depth + 1:
            return
        cutoff = fins[self.gc_depth]
        cutoff_key = self._tag_key(cutoff)
        doomed = [
            t for t in self.store if self._tag_key(t) < cutoff_key
        ]
        notified = 0
        for t in doomed:
            del self.store[t]
            for reader, ref in self.pending_readers.pop(t, []):
                ctx.send(reader, Message.make("read-gc", ref=ref, tag=t))
                notified += 1
        if doomed:
            floor = max(doomed, key=self._tag_key)
            if self.gc_floor is None or self._tag_key(floor) > self._tag_key(
                self.gc_floor
            ):
                self.gc_floor = floor
            if ctx.obs:
                ctx.obs.registry.inc("casgc.gc.prunes")
                ctx.obs.registry.inc("casgc.gc.records_pruned", len(doomed))
                if notified:
                    ctx.obs.registry.inc("casgc.gc.reader_notices", notified)

    # -- protocol -----------------------------------------------------------

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if message.kind == "qf":
            ctx.send(
                src,
                Message.make(
                    "qf-ack",
                    ref=require_payload(message, "ref"),
                    tag=self._max_fin_tag(),
                ),
            )
        elif message.kind == "pre":
            tag = require_payload(message, "tag")
            elem = require_payload(message, "elem")
            record = self.store.get(tag)
            if record is None:
                # A collected tag stays collected: a late pre-write is
                # acknowledged, but its element is not stored.
                if not self._collected(tag):
                    self.store[tag] = [elem, PRE]
            elif record[0] is None:
                record[0] = elem
            self._serve_pending(ctx, tag)
            ctx.send(
                src, Message.make("pre-ack", ref=require_payload(message, "ref"))
            )
        elif message.kind == "fin":
            tag = require_payload(message, "tag")
            record = self.store.get(tag)
            if record is None:
                if not self._collected(tag):
                    self.store[tag] = [None, FIN]
            else:
                record[1] = FIN
            self._serve_pending(ctx, tag)
            self._prune(ctx)
            ctx.send(
                src, Message.make("fin-ack", ref=require_payload(message, "ref"))
            )
        elif message.kind == "read-fin":
            tag = require_payload(message, "tag")
            ref = require_payload(message, "ref")
            record = self.store.get(tag)
            if record is not None and record[0] is not None:
                ctx.send(
                    src,
                    Message.make("read-ack", ref=ref, tag=tag, elem=record[0]),
                )
            elif self._collected(tag):
                ctx.send(src, Message.make("read-gc", ref=ref, tag=tag))
            else:
                self.pending_readers.setdefault(tag, []).append((src, ref))
        else:
            raise SimulationError(f"CAS server got unknown message {message!r}")

    # -- accounting -----------------------------------------------------------

    def state_digest(self) -> tuple:
        store = tuple(
            (t, rec[0], rec[1]) for t, rec in sorted(self.store.items())
        )
        pending = tuple(
            (t, tuple(v)) for t, v in sorted(self.pending_readers.items())
        )
        return (store, pending, self.gc_floor)

    def storage_bits(self, count_metadata: bool = False) -> float:
        """Coded-element bits held now (+ per-record metadata if asked)."""
        bits = sum(
            float(self.code.symbol_bits)
            for rec in self.store.values()
            if rec[0] is not None
        )
        if count_metadata:
            bits += RECORD_METADATA_BITS * len(self.store)
            bits += RECORD_METADATA_BITS * sum(
                len(v) for v in self.pending_readers.values()
            )
        return bits

    def stored_version_count(self) -> int:
        """Number of coded elements currently held."""
        return sum(1 for rec in self.store.values() if rec[0] is not None)


class CASWriteClient(QuorumClient):
    """Three-phase CAS writer.

    With ``byzantine_budget=b > 0`` every phase waits for ``quorum + b``
    acknowledgements, so at least ``quorum`` *honest* servers performed
    the phase even if ``b`` Byzantine servers acknowledged without
    installing (the ``ack-drop`` role).  Query-phase tags are safe
    without validation: corrupt servers may only *understate* their
    highest finalized tag, and the max over ``quorum + b`` responses
    dominates the max over the honest quorum inside it.
    """

    PHASES = ("write/query", "write/pre-write", "write/finalize")

    def __init__(
        self,
        pid: str,
        server_ids: Tuple[str, ...],
        quorum: int,
        code: ReedSolomonCode,
        byzantine_budget: int = 0,
    ) -> None:
        super().__init__(pid, server_ids, quorum, byzantine_budget)
        self.code = code
        self.pending_value: Optional[int] = None
        self.max_tag: tuple = INITIAL_TAG.as_tuple()
        self.write_tag: Optional[tuple] = None

    def start_write(self, ctx: ProcessContext, op_id: int, value: int) -> None:
        self.pending_value = value
        self.max_tag = INITIAL_TAG.as_tuple()
        self._enter(ctx, 1, "qf")

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if not self._accept_ack(src, message):
            return
        if self.phase == 1 and message.kind == "qf-ack":
            tag = message.get("tag")
            if Tag.from_tuple(tag) > Tag.from_tuple(self.max_tag):
                self.max_tag = tag
            if len(self.responded) >= self.ack_target:
                self.write_tag = (
                    Tag.from_tuple(self.max_tag).next_for(self.pid).as_tuple()
                )
                # The single value-dependent phase: per-server coded symbols.
                elems = (
                    self.code.encode_symbol(self.pending_value, i)
                    for i in range(len(self.server_ids))
                )
                self._enter(ctx, 2, "pre", elems, tag=self.write_tag)
        elif self.phase == 2 and message.kind == "pre-ack":
            if len(self.responded) >= self.ack_target:
                self._enter(ctx, 3, "fin", tag=self.write_tag)
        elif self.phase == 3 and message.kind == "fin-ack":
            if len(self.responded) >= self.ack_target:
                self.pending_value = None
                self.write_tag = None
                self._finish(ctx)

    def state_digest(self) -> tuple:
        return (
            self.phase,
            self.phase_nonce,
            tuple(sorted(self.responded)),
            self.pending_value,
            self.max_tag,
            self.write_tag,
            self.pending_op_id,
        )


class CASReadClient(QuorumClient):
    """Two-phase CAS reader with GC-retry.

    With ``byzantine_budget=b > 0`` the reader performs *validated
    decoding*: corrupt coded elements are detected by consistency, not
    trust.  Once at least ``k + b`` elements arrived it tries decoding
    ``k``-subsets (deterministic order: sorted server indices) and
    accepts a decode only when its re-encoding matches at least
    ``k + b`` of the received elements.  Two distinct codewords of an
    ``(n, k)`` MDS code agree in at most ``k - 1`` coordinates, so a
    wrong value matches at most ``k - 1`` honest elements plus ``b``
    corrupt ones — strictly below the bar — while the true value
    matches every honest element and therefore clears the bar once
    ``k + 2b`` responses arrive.  Elements disagreeing with the
    accepted codeword are proof-positive corruption and counted on
    ``byz_detected``.  Liveness thus needs ``k <= n - 2f - 2b``:
    the Byzantine price paid in code rate (the BKS duality).
    """

    PHASES = ("read/query", "read/collect")

    def __init__(
        self,
        pid: str,
        server_ids: Tuple[str, ...],
        quorum: int,
        code: ReedSolomonCode,
        max_retries: int = 100,
        byzantine_budget: int = 0,
    ) -> None:
        super().__init__(pid, server_ids, quorum, byzantine_budget)
        self.server_index = {sid: i for i, sid in enumerate(server_ids)}
        self.code = code
        self.max_retries = max_retries
        self.read_tag: tuple = INITIAL_TAG.as_tuple()
        self.elements: Dict[int, int] = {}
        self.retries = 0
        self.byz_detected = 0

    def _query(self, ctx: ProcessContext) -> None:
        self.read_tag = INITIAL_TAG.as_tuple()
        self.elements = {}
        self._enter(ctx, 1, "qf")

    def start_read(self, ctx: ProcessContext, op_id: int) -> None:
        self.retries = 0
        self._query(ctx)

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if self.phase == 1:
            if message.kind != "qf-ack" or not self._accept_ack(src, message):
                return
            tag = message.get("tag")
            if Tag.from_tuple(tag) > Tag.from_tuple(self.read_tag):
                self.read_tag = tag
            if len(self.responded) >= self.ack_target:
                self._enter(ctx, 2, "read-fin", tag=self.read_tag)
        # Elements are keyed by server, so a repeated reply (a channel
        # duplicate) only overwrites: collecting checks the phase alone.
        elif not self._current(message):
            return
        elif message.kind == "read-ack":
            if message.get("tag") != self.read_tag:
                return
            self.elements[self.server_index[src]] = message.get("elem")
            if self.byzantine_budget:
                value = self._try_validated_decode(ctx)
                if value is None:
                    return
            elif len(self.elements) >= self.code.k:
                value = self.code.decode(self.elements)
            else:
                return
            self._finish(ctx, value)
        elif message.kind == "read-gc":
            # The tag we wanted was garbage-collected: a newer finalized
            # tag exists, so re-query.
            self.retries += 1
            if self.retries > self.max_retries:
                raise SimulationError(
                    f"CAS reader {self.pid} exceeded {self.max_retries} GC retries"
                )
            if ctx.obs:
                ctx.obs.registry.inc("cas.read_gc_retries")
            # The re-query stays attributed to the same operation, so
            # per-op phase breakdowns include GC-forced re-queries.
            self._query(ctx)

    def _try_validated_decode(self, ctx: ProcessContext) -> Optional[int]:
        """Decode a ``k``-subset whose codeword explains ``>= k + b`` of
        the received elements; ``None`` until enough consistent shards
        arrived.  Subsets are tried in sorted-index order so the result
        is a pure function of the element set (determinism at any
        ``--jobs``)."""
        k, b = self.code.k, self.byzantine_budget
        if len(self.elements) < k + b:
            return None
        if ctx.obs:
            ctx.obs.begin_span(self.pid, "read/validate", ctx.step)
        indices = sorted(self.elements)
        accepted = None
        for subset in combinations(indices, k):
            value = self.code.decode(
                {i: self.elements[i] for i in subset}
            )
            matches = sum(
                1
                for i in indices
                if self.code.encode_symbol(value, i) == self.elements[i]
            )
            if matches >= k + b:
                accepted = value
                mismatched = len(indices) - matches
                if mismatched:
                    self.byz_detected += mismatched
                    if ctx.obs:
                        ctx.obs.registry.inc(
                            "faults.byzantine.detected", mismatched
                        )
                        ctx.obs.registry.inc(
                            "faults.byzantine.masked", mismatched
                        )
                break
        if ctx.obs:
            ctx.obs.end_span(self.pid, "read/validate", ctx.step)
        return accepted

    def state_digest(self) -> tuple:
        return (
            self.phase,
            self.phase_nonce,
            tuple(sorted(self.responded)),
            self.read_tag,
            tuple(sorted(self.elements.items())),
            self.retries,
            self.pending_op_id,
            self.byz_detected,
        )


def build_cas_system(
    n: int,
    f: int,
    value_bits: int = 12,
    k: Optional[int] = None,
    num_writers: int = 1,
    num_readers: int = 1,
    initial_value: int = 0,
    gc_depth: Optional[int] = None,
    optimistic: bool = False,
    byzantine_budget: int = 0,
    world: Optional[World] = None,
) -> SystemHandle:
    """Build a World running CAS (or CASGC if ``gc_depth`` is set).

    ``byzantine_budget=b`` enables validated decoding against up to
    ``b`` corrupt servers; the default code rate then drops to
    ``k = n - 2f - 2b`` so a reader can always gather the ``k + 2b``
    consistent elements validation needs — the storage price of
    Byzantine tolerance (see ``docs/byzantine.md``).
    """
    validate_system_params(n, f, value_bits, num_writers, num_readers)
    if byzantine_budget < 0:
        raise ConfigurationError(
            f"byzantine_budget must be >= 0; got {byzantine_budget}"
        )
    if k is None:
        k = max(1, n - 2 * f - 2 * byzantine_budget)
    max_k = (n - f) if optimistic else (n - 2 * f - 2 * byzantine_budget)
    if not 1 <= k <= max(1, max_k):
        raise ConfigurationError(
            f"CAS needs 1 <= k <= {max(1, max_k)} "
            f"(n={n}, f={f}, optimistic={optimistic}, "
            f"byzantine_budget={byzantine_budget}); got k={k}"
        )
    q = cas_quorum_size(n, k)
    if q + byzantine_budget > n:
        raise ConfigurationError(
            f"escalated quorum {q}+{byzantine_budget} exceeds n={n}; "
            "byzantine_budget too large for this (n, k)"
        )
    if not optimistic and q > n - f:
        raise ConfigurationError(
            f"quorum {q} exceeds surviving servers {n - f}"
        )
    code = cas_code_for(n, k, value_bits)
    w = world or World()
    server_ids = [server_id(i) for i in range(n)]
    for i, sid in enumerate(server_ids):
        w.add_process(
            CASServer(sid, code, code.encode_symbol(initial_value, i), gc_depth)
        )
    sid_tuple = tuple(server_ids)
    writer_ids = [writer_id(i) for i in range(num_writers)]
    for pid in writer_ids:
        w.add_process(
            CASWriteClient(
                pid, sid_tuple, q, code, byzantine_budget=byzantine_budget
            )
        )
    reader_ids = [reader_id(i) for i in range(num_readers)]
    for pid in reader_ids:
        w.add_process(
            CASReadClient(
                pid, sid_tuple, q, code, byzantine_budget=byzantine_budget
            )
        )
    return SystemHandle(
        world=w,
        algorithm="casgc" if gc_depth is not None else "cas",
        n=n,
        f=f,
        value_bits=value_bits,
        server_ids=server_ids,
        writer_ids=writer_ids,
        reader_ids=reader_ids,
        params={
            "k": k,
            "quorum": q,
            "gc_depth": gc_depth,
            "optimistic": optimistic,
            "symbol_bits": code.symbol_bits,
            "byzantine_budget": byzantine_budget,
        },
    )
