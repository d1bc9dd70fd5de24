"""A one-phase erasure-coded SWMR *regular* register.

The minimal coded protocol the lower bounds bite on:

* **Writer** (single phase — the only value-dependent one): increments
  a local sequence number, sends codeword symbol ``i`` of the value
  under the new tag to server ``i``, and returns after
  ``⌈(N+k)/2⌉`` acks.
* **Server:** appends ``(tag, symbol)`` to its version store (no
  garbage collection — the ``ν``-version storage growth in its purest
  form).
* **Reader** (single phase): asks every server for its version store,
  waits for a quorum, and returns the value of the highest tag for
  which at least ``k`` symbols arrived.

Write and read quorums intersect in ``>= k`` servers, so the newest
*completed* write is always decodable; the reader returns its tag or a
higher (necessarily concurrent) one — Lamport regularity.  Reads do
not modify server state, so new/old inversions between two sequential
reads are possible and the register is not atomic: this is precisely
the weakest consistency class Theorems B.1/4.1/5.1 are stated for.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
from repro.registers.cas import cas_code_for, cas_quorum_size
from repro.registers.tags import INITIAL_TAG, Tag
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ProcessContext, ServerProcess, require_payload


class CodedServer(ServerProcess):
    """Append-only ``tag -> codeword symbol`` store."""

    def __init__(self, pid: str, code: ReedSolomonCode, initial_element: int):
        super().__init__(pid)
        self.code = code
        self.store: Dict[tuple, int] = {INITIAL_TAG.as_tuple(): initial_element}

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if message.kind == "cput":
            tag = require_payload(message, "tag")
            self.store.setdefault(tag, require_payload(message, "elem"))
            ctx.send(
                src,
                Message.make("cput-ack", ref=require_payload(message, "ref")),
            )
        elif message.kind == "cget":
            ctx.send(
                src,
                Message.make(
                    "cget-ack",
                    ref=require_payload(message, "ref"),
                    versions=tuple(sorted(self.store.items())),
                ),
            )
        else:
            raise SimulationError(f"coded server got unknown message {message!r}")

    def state_digest(self) -> tuple:
        return tuple(sorted(self.store.items()))

    def storage_bits(self, count_metadata: bool = False) -> float:
        bits = float(len(self.store) * self.code.symbol_bits)
        if count_metadata:
            bits += 64 * len(self.store)
        return bits

    def stored_version_count(self) -> int:
        """Number of symbols currently held."""
        return len(self.store)


class CodedSWMRWriter(QuorumClient):
    """One-phase coded writer with a local sequence counter."""

    PHASES = ("write/propagate",)

    def __init__(self, pid: str, server_ids: Tuple[str, ...], quorum: int,
                 code: ReedSolomonCode):
        super().__init__(pid, server_ids, quorum)
        self.code = code
        self.seq = 0

    def start_write(self, ctx: ProcessContext, op_id: int, value: int) -> None:
        self.seq += 1
        elems = (
            self.code.encode_symbol(value, i) for i in range(len(self.server_ids))
        )
        self._enter(ctx, 1, "cput", elems, tag=Tag(self.seq, self.pid).as_tuple())

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if message.kind != "cput-ack" or not self._accept_ack(src, message):
            return
        if len(self.responded) >= self.ack_target:
            self._finish(ctx)

    def state_digest(self) -> tuple:
        return (
            self.seq,
            self.phase_nonce,
            tuple(sorted(self.responded)),
            self.pending_op_id,
        )


class CodedSWMRReader(QuorumClient):
    """One-phase coded reader: highest decodable tag wins."""

    PHASES = ("read/query",)

    def __init__(self, pid: str, server_ids: Tuple[str, ...], quorum: int,
                 code: ReedSolomonCode):
        super().__init__(pid, server_ids, quorum)
        self.server_index = {sid: i for i, sid in enumerate(server_ids)}
        self.code = code
        self.responses: Dict[str, tuple] = {}

    def start_read(self, ctx: ProcessContext, op_id: int) -> None:
        self.responses = {}
        self._enter(ctx, 1, "cget")

    def _decode_latest(self) -> int:
        by_tag: Dict[tuple, Dict[int, int]] = {}
        for sid, versions in self.responses.items():
            index = self.server_index[sid]
            for tag, elem in versions:
                by_tag.setdefault(tag, {})[index] = elem
        for tag in sorted(by_tag, key=Tag.from_tuple, reverse=True):
            symbols = by_tag[tag]
            if len(symbols) >= self.code.k:
                return self.code.decode(symbols)
        raise SimulationError(
            "no decodable version in a full read quorum (broken quorums?)"
        )

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if message.kind != "cget-ack" or not self._accept_ack(src, message):
            return
        self.responses[src] = message.get("versions")
        if len(self.responded) >= self.ack_target:
            self._finish(ctx, self._decode_latest())

    def state_digest(self) -> tuple:
        return (
            self.phase_nonce,
            tuple(sorted(self.responses.items())),
            self.pending_op_id,
        )


def build_coded_swmr_system(
    n: int,
    f: int,
    value_bits: int = 12,
    k: Optional[int] = None,
    num_readers: int = 1,
    initial_value: int = 0,
    optimistic: bool = False,
    world: Optional[World] = None,
) -> SystemHandle:
    """Build the one-phase coded SWMR regular register."""
    validate_system_params(n, f, value_bits, 1, num_readers)
    if k is None:
        k = max(1, n - 2 * f)
    max_k = (n - f) if optimistic else (n - 2 * f)
    if not 1 <= k <= max(1, max_k):
        raise ConfigurationError(
            f"coded SWMR needs 1 <= k <= {max(1, max_k)} "
            f"(n={n}, f={f}, optimistic={optimistic}); got k={k}"
        )
    q = cas_quorum_size(n, k)
    if not optimistic and q > n - f:
        raise ConfigurationError(f"quorum {q} exceeds surviving servers {n - f}")
    code = cas_code_for(n, k, value_bits)
    w = world or World()
    server_ids = [server_id(i) for i in range(n)]
    for i, sid in enumerate(server_ids):
        w.add_process(CodedServer(sid, code, code.encode_symbol(initial_value, i)))
    sid_tuple = tuple(server_ids)
    wid = writer_id(0)
    w.add_process(CodedSWMRWriter(wid, sid_tuple, q, code))
    reader_ids = [reader_id(i) for i in range(num_readers)]
    for pid in reader_ids:
        w.add_process(CodedSWMRReader(pid, sid_tuple, q, code))
    return SystemHandle(
        world=w,
        algorithm="coded-swmr",
        n=n,
        f=f,
        value_bits=value_bits,
        server_ids=server_ids,
        writer_ids=[wid],
        reader_ids=reader_ids,
        params={"k": k, "quorum": q, "symbol_bits": code.symbol_bits,
                "optimistic": optimistic},
    )
