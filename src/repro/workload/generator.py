"""Workload drivers: sequential and randomized operation schedules.

These produce *histories* for the consistency checkers and exercise
the algorithms the way the paper's model intends: operations invoked
at clients, interleaved by an asynchronous scheduler, with every new
invocation at a client waiting for the preceding response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.consistency.history import History
from repro.errors import ConfigurationError, OperationIncompleteError
from repro.registers.base import SystemHandle
from repro.sim.events import OperationRecord
from repro.util.rng import SeededRNG


@dataclass
class WorkloadResult:
    """What a workload run produced."""

    history: History
    steps: int

    @property
    def operations(self) -> List[OperationRecord]:
        """All operation records."""
        return self.history.operations


def run_sequential_workload(
    handle: SystemHandle,
    values: Sequence[int],
    read_every: int = 1,
    max_steps: int = 200_000,
) -> WorkloadResult:
    """Write each value in turn; read after every ``read_every`` writes.

    All operations run to completion before the next starts — the
    zero-concurrency baseline.
    """
    steps_before = handle.world.step_count
    for i, value in enumerate(values):
        handle.write(value, max_steps=max_steps)
        if read_every and (i + 1) % read_every == 0:
            handle.read(max_steps=max_steps)
    return WorkloadResult(
        history=History.from_world(handle.world),
        steps=handle.world.step_count - steps_before,
    )


def run_random_workload(
    handle: SystemHandle,
    num_ops: int,
    seed: int = 0,
    read_fraction: float = 0.5,
    step_bias: float = 0.7,
    max_steps: int = 500_000,
) -> WorkloadResult:
    """Randomized concurrent workload.

    At each tick, with probability ``step_bias`` deliver one scheduled
    message; otherwise invoke a new operation at a random *idle* client
    (a read with probability ``read_fraction``, else a write of a
    random value).  After ``num_ops`` invocations, drain until every
    operation completes.  Deterministic for a given seed.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigurationError("read_fraction must be in [0, 1]")
    rng = SeededRNG(seed, "workload")
    world = handle.world
    steps_before = world.step_count
    invoked = 0
    ticks = 0

    def idle_clients(pids: Sequence[str]) -> List[str]:
        return [
            pid
            for pid in pids
            if world.process(pid).pending_op_id is None  # type: ignore[attr-defined]
            and not world.process(pid).failed
        ]

    while invoked < num_ops:
        ticks += 1
        if ticks > max_steps:
            raise OperationIncompleteError(
                f"workload stalled after {max_steps} ticks"
            )
        want_step = rng.random() < step_bias and world.enabled_keys()
        if want_step:
            world.step()
        else:
            do_read = rng.random() < read_fraction
            pool = idle_clients(
                handle.reader_ids if do_read else handle.writer_ids
            )
            if not pool:
                if world.step() is None:
                    raise OperationIncompleteError(
                        "no idle clients and no enabled channels"
                    )
            elif do_read:
                world.invoke_read(rng.choice(pool))
                invoked += 1
            else:
                value = rng.randint(0, handle.value_space_size - 1)
                world.invoke_write(rng.choice(pool), value)
                invoked += 1

    # Drain: run until every invoked operation has responded.
    while world.pending_operations():
        if world.step() is None:
            raise OperationIncompleteError(
                "system quiesced with operations pending"
            )
        ticks += 1
        if ticks > max_steps:
            raise OperationIncompleteError(
                f"drain exceeded {max_steps} ticks"
            )

    return WorkloadResult(
        history=History.from_world(world),
        steps=world.step_count - steps_before,
    )
