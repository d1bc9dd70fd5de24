"""Communication-cost accounting.

The paper's Section 2.3 notes that the erasure-coded algorithms differ
in *communication* costs as well as storage; this module measures both
axes for our implementations: messages per operation and value-derived
bits on the wire.

Bit accounting mirrors the storage normalization: payload fields that
carry value-derived data (``value`` — a full value; ``elem`` — one
codeword symbol; ``versions`` — a server's symbol store) are charged
their real widths; everything else (tags, refs, acks) is o(log |V|)
metadata and charged only under ``count_metadata``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.registers.base import SystemHandle
from repro.sim.events import Message

#: Nominal metadata bits per message (kind, tag, ref fields).
MESSAGE_METADATA_BITS = 96


def message_value_bits(message: Message, handle: SystemHandle) -> float:
    """Value-derived bits a message carries."""
    bits = 0.0
    symbol_bits = float(handle.params.get("symbol_bits", handle.value_bits))
    for key, payload in message.body:
        if key == "value" and payload is not None:
            bits += handle.value_bits
        elif key == "elem" and payload is not None:
            bits += symbol_bits
        elif key == "versions" and payload is not None:
            bits += symbol_bits * len(payload)
    return bits


@dataclass(frozen=True)
class CommunicationCost:
    """Messages and bits exchanged during one operation."""

    operation: str  # "write" | "read"
    messages: int
    value_bits: float
    metadata_bits: float

    def normalized_bits(self, value_bits: int) -> float:
        """Value bits on the wire divided by ``log2 |V|``."""
        return self.value_bits / value_bits


def _measure_one(
    handle: SystemHandle, invoke: Callable[[], object]
) -> CommunicationCost:
    world = handle.world
    sent: List[Message] = []

    original = world.enqueue_message

    def spying(src: str, dst: str, message: Message) -> None:
        sent.append(message)
        original(src, dst, message)

    world.enqueue_message = spying  # type: ignore[method-assign]
    try:
        record = invoke()
        world.run_op_to_completion(record)
        world.deliver_all()
    finally:
        # The spy refers to the World through ``original``: remove it,
        # so the World is freed without the cyclic collector.
        del world.enqueue_message
    value_bits = sum(message_value_bits(m, handle) for m in sent)
    kind = record.kind  # type: ignore[attr-defined]
    return CommunicationCost(
        operation=kind,
        messages=len(sent),
        value_bits=value_bits,
        metadata_bits=float(MESSAGE_METADATA_BITS * len(sent)),
    )


def measure_operation_costs(
    handle: SystemHandle, warmup_writes: int = 1
) -> Dict[str, CommunicationCost]:
    """Communication cost of one write and one read on a warm system.

    ``warmup_writes`` operations run first so the measured ones see a
    steady state (e.g. CAS readers fetch real coded elements rather
    than hitting the initial-value fast path).
    """
    for v in range(1, warmup_writes + 1):
        handle.write(v % handle.value_space_size)
    handle.world.deliver_all()
    write_cost = _measure_one(
        handle,
        lambda: handle.world.invoke_write(
            handle.writer_ids[0], 2 % handle.value_space_size
        ),
    )
    read_cost = _measure_one(
        handle, lambda: handle.world.invoke_read(handle.reader_ids[0])
    )
    return {"write": write_cost, "read": read_cost}


def communication_table(
    systems: Dict[str, SystemHandle],
) -> List[Tuple[str, str, int, float, float]]:
    """Rows ``(algorithm, op, messages, value bits, normalized)``."""
    rows = []
    for name, handle in systems.items():
        costs = measure_operation_costs(handle)
        for op in ("write", "read"):
            cost = costs[op]
            rows.append(
                (
                    name,
                    op,
                    cost.messages,
                    cost.value_bits,
                    cost.normalized_bits(handle.value_bits),
                )
            )
    return rows
