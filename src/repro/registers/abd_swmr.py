"""Single-writer ABD: one-phase writes.

With a single writer the query phase is unnecessary — the writer owns
the tag sequence and increments a local counter.  The write sends
``(tag, value)`` to all servers and awaits a quorum of acks: exactly
one phase, and the only value-dependent one, so the algorithm sits in
Theorem 6.5's class with the smallest possible phase structure.

The reader is the ABD reader (reused); with ``read_write_back=False``
this is the canonical *SWSR regular* register the lower-bound
experiments of Theorems B.1 and 4.1 run against.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.registers.abd import ABDReadClient, ABDServer
from repro.registers.base import (
    QuorumClient,
    SystemHandle,
    quorum_size,
    reader_id,
    server_id,
    validate_system_params,
    writer_id,
)
from repro.registers.tags import Tag
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ProcessContext


class SWMRWriteClient(QuorumClient):
    """One-phase writer holding a local sequence counter."""

    opaque_server_ids = True
    PHASES = ("write/propagate",)

    def __init__(self, pid: str, server_ids: Tuple[str, ...], quorum: int) -> None:
        super().__init__(pid, server_ids, quorum)
        self.seq = 0

    def start_write(self, ctx: ProcessContext, op_id: int, value: int) -> None:
        self.seq += 1
        self._enter(ctx, 1, "put", tag=Tag(self.seq, self.pid).as_tuple(), value=value)

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        if not self._accept_ack(src, message):
            return
        if message.kind == "put-ack" and len(self.responded) >= self.ack_target:
            self._finish(ctx)

    def state_digest(self) -> tuple:
        return (
            self.phase,
            self.phase_nonce,
            frozenset(self.responded),
            self.seq,
            self.pending_op_id,
        )


def build_swmr_abd_system(
    n: int,
    f: int,
    value_bits: int = 8,
    num_readers: int = 1,
    initial_value: int = 0,
    read_write_back: bool = False,
    world: Optional[World] = None,
) -> SystemHandle:
    """Build a single-writer ABD system (regular by default)."""
    validate_system_params(n, f, value_bits, 1, num_readers)
    q = quorum_size(n, f)
    w = world or World()
    server_ids = [server_id(i) for i in range(n)]
    for sid in server_ids:
        w.add_process(ABDServer(sid, value_bits, initial_value))
    sid_tuple = tuple(server_ids)
    wid = writer_id(0)
    w.add_process(SWMRWriteClient(wid, sid_tuple, q))
    reader_ids = [reader_id(i) for i in range(num_readers)]
    for pid in reader_ids:
        w.add_process(ABDReadClient(pid, sid_tuple, q, read_write_back))
    return SystemHandle(
        world=w,
        algorithm="swmr-abd",
        n=n,
        f=f,
        value_bits=value_bits,
        server_ids=server_ids,
        writer_ids=[wid],
        reader_ids=reader_ids,
        params={"quorum": q, "read_write_back": read_write_back},
    )
