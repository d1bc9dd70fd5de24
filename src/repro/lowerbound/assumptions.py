"""Executable verification of Theorem 6.5's protocol assumptions.

Section 6 restricts attention to write protocols whose actions are
*black-box* (oblivious to the actual value) and which send
value-dependent messages in at most one phase.  The paper argues the
algorithms of [1, 4-6, 11, 12, 21] satisfy these assumptions; here we
*check* them for our implementations, by instrumentation:

run the same write twice with different values under identical
schedules, and diff the two message streams.

* a message kind whose payloads differ between the runs is
  **value-dependent**; kinds with identical payloads are
  value-independent;
* if the two runs produce the same *sequence of kinds* (same sends, in
  the same order, to the same destinations), the client's control flow
  did not depend on the value — the black-box property (Definition
  6.3) as observable from the outside;
* grouping the writer's sends into *phases* (maximal send bursts
  between waiting on responses — Definition 6.1) lets us count how
  many phases carry value-dependent messages (Assumption 3(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ProofConstructionError
from repro.lowerbound.executions import SystemBuilder
from repro.sim.events import Message


@dataclass(frozen=True)
class SendRecord:
    """One message sent by the writer during an instrumented write."""

    order: int
    dst: str
    kind: str
    body: tuple


@dataclass(frozen=True)
class AssumptionReport:
    """Result of checking Theorem 6.5's protocol assumptions."""

    algorithm: str
    black_box: bool
    value_dependent_kinds: Tuple[str, ...]
    value_independent_kinds: Tuple[str, ...]
    phase_kinds: Tuple[str, ...]  # kind of each phase's sends, in order
    value_dependent_phases: int

    @property
    def satisfies_theorem65(self) -> bool:
        """Assumptions 1-3: black-box, <= 1 value-dependent phase."""
        return self.black_box and self.value_dependent_phases <= 1

    def as_row(self) -> tuple:
        return (
            self.algorithm,
            "yes" if self.black_box else "NO",
            ",".join(self.phase_kinds),
            ",".join(self.value_dependent_kinds) or "-",
            self.value_dependent_phases,
            "yes" if self.satisfies_theorem65 else "NO",
        )


def _record_write(builder: SystemBuilder, n: int, f: int, value_bits: int,
                  value: int, max_steps: int) -> List[SendRecord]:
    """Run one write to completion; capture every message the writer sends.

    The deterministic round-robin scheduler makes two runs comparable
    message-for-message.
    """
    handle = builder(n, f, value_bits)
    world = handle.world
    writer = handle.writer_ids[0]
    sends: List[SendRecord] = []
    order = 0

    original = world.enqueue_message

    def spying_enqueue(src: str, dst: str, message: Message) -> None:
        nonlocal order
        if src == writer:
            sends.append(SendRecord(order, dst, message.kind, message.body))
            order += 1
        original(src, dst, message)

    world.enqueue_message = spying_enqueue  # type: ignore[method-assign]
    try:
        op = world.invoke_write(writer, value)
        world.run_op_to_completion(op, max_steps=max_steps)
    finally:
        # The spy refers to the World through ``original``: remove it,
        # so the World is freed without the cyclic collector.
        del world.enqueue_message
    return sends


def _phases_of(sends: Sequence[SendRecord], n_servers: int) -> List[List[SendRecord]]:
    """Group a writer's sends into phases.

    A phase (Definition 6.1) sends to a set of servers then waits for
    responses.  In the recorded stream a new phase starts whenever a
    destination repeats within the current burst — until then the burst
    is still fanning out.  (All our protocols send each phase's message
    to every server exactly once, so this recovers the true phases.)
    """
    phases: List[List[SendRecord]] = []
    current: List[SendRecord] = []
    seen_dsts: set = set()
    for send in sends:
        if send.dst in seen_dsts or (current and send.kind != current[0].kind):
            phases.append(current)
            current = []
            seen_dsts = set()
        current.append(send)
        seen_dsts.add(send.dst)
    if current:
        phases.append(current)
    return phases


def analyze_write_protocol(
    builder: SystemBuilder,
    n: int,
    f: int,
    value_bits: int,
    algorithm: str = "unknown",
    probe_values: Optional[Sequence[int]] = None,
    max_steps: int = 100_000,
) -> AssumptionReport:
    """Classify a write protocol against Assumptions 1-3 of Section 6."""
    if probe_values is None:
        probe_values = [1, (1 << value_bits) - 1]
    if len(set(probe_values)) < 2:
        raise ProofConstructionError("need at least two distinct probe values")

    streams = [
        _record_write(builder, n, f, value_bits, v, max_steps)
        for v in probe_values
    ]
    reference = streams[0]
    for other in streams[1:]:
        shapes_match = len(other) == len(reference) and all(
            (a.dst, a.kind) == (b.dst, b.kind)
            for a, b in zip(reference, other)
        )
        if not shapes_match:
            return AssumptionReport(
                algorithm=algorithm,
                black_box=False,
                value_dependent_kinds=(),
                value_independent_kinds=(),
                phase_kinds=(),
                value_dependent_phases=0,
            )

    # Classify kinds: a kind is value-dependent if any same-position
    # message body differs across the probe runs.
    dependent: set = set()
    independent: set = set()
    for position, ref in enumerate(reference):
        differs = any(
            streams[j][position].body != ref.body
            for j in range(1, len(streams))
        )
        (dependent if differs else independent).add(ref.kind)
    independent -= dependent

    phases = _phases_of(reference, n)
    phase_kinds = tuple(phase[0].kind for phase in phases)
    vd_phases = sum(
        1 for phase in phases if any(s.kind in dependent for s in phase)
    )
    return AssumptionReport(
        algorithm=algorithm,
        black_box=True,
        value_dependent_kinds=tuple(sorted(dependent)),
        value_independent_kinds=tuple(sorted(independent)),
        phase_kinds=phase_kinds,
        value_dependent_phases=vd_phases,
    )
