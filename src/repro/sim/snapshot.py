"""World forking utilities.

Valency probing (Definitions 4.3 / 5.3 / Section 6.4.2) asks whether an
*extension* of the current execution exists in which a read returns a
particular value.  We answer it constructively: fork the World, apply
the definition's channel freezes, run a read, observe the result.  The
fork must be observably identical to the original and causally
independent of it (``World.fork`` is copy-on-write: the twins share
state until one writes); these helpers add cheap integrity checks
around :meth:`World.fork`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import SimulationError
from repro.sim.network import World


def world_digest(world: World) -> Tuple:
    """A hashable digest of the full observable World state.

    Covers every process digest, every channel's contents, and the step
    counter.  Two Worlds with equal digests are indistinguishable to
    any extension (the composite-automaton state of Claim 4.9).
    """
    return (world.step_count, world.process_digests(), world.channel_digests())


def fork_world(world: World, verify: bool = False) -> World:
    """Fork a World; optionally verify the copy digests identically."""
    clone = world.fork()
    if verify and world_digest(clone) != world_digest(world):
        raise SimulationError("fork produced a divergent copy")
    return clone


def forks_agree(a: World, b: World) -> bool:
    """True iff two Worlds are observably identical."""
    return world_digest(a) == world_digest(b)


def composite_digest(
    world: World, exclude_pids: Optional[Tuple[str, ...]] = None
) -> Tuple:
    """Digest of the composite automaton *excluding* some processes and
    their channels.

    Claim 4.9 compares "the servers, the readers and the channels
    between the readers and servers" — i.e. everything except the
    writer and its channels.  ``exclude_pids`` names the excluded
    processes.
    """
    excluded = frozenset(exclude_pids or ())
    return (world.process_digests(excluded), world.channel_digests(excluded))
