"""Cross-server protocol invariants, checkable at any point.

Each register protocol maintains global invariants that no single
process can see but the simulator can: tag/value agreement across
replicas, quorum-backed finalization, codeword consistency.  These
checkers are pure functions of a World's state — run them at every
step of a workload (``check_invariants_during``) to catch protocol
bugs at the step that introduces them rather than at the read that
exposes them.

Implemented invariants:

**ABD family** (``check_abd_invariants``)
  A1. tag agreement: two servers holding the same tag hold the same
      value (tags name unique written values);
  A2. provenance: every non-initial server tag was issued by a write
      operation (its value matches some invoked write's value).

**CAS family** (``check_cas_invariants``)
  C1. codeword consistency: for each tag, the coded elements stored
      across servers lie on one codeword;
  C2. quorum-backed finalization: if the *highest* finalized tag at
      any server is ``t``, at least ``k`` servers (failed ones count —
      crash stops actions, not storage) hold a coded element for
      ``t`` or have one in flight, so a read of ``t`` can decode.

**Coded SWMR** (``check_coded_invariants``)
  S1. codeword consistency per tag (as C1);
  S2. write-quorum backing for every tag any server stores once the
      writer's put wave has fully left its channels.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.registers.base import SystemHandle
from repro.registers.cas import CASServer, FIN
from repro.registers.coded_swmr import CodedServer
from repro.registers.tags import INITIAL_TAG, Tag
from repro.sim.network import World


def check_abd_invariants(handle: SystemHandle) -> List[str]:
    """A1 + A2 for ABD / SWMR-ABD systems."""
    violations: List[str] = []
    world = handle.world
    seen: Dict[tuple, Tuple[str, int]] = {}
    written = {
        (op.value) for op in world.operations if op.kind == "write"
    }
    initial = None
    for pid in handle.server_ids:
        server = world.process(pid)
        tag = server.tag.as_tuple()
        if tag in seen:
            other_pid, other_value = seen[tag]
            if other_value != server.value:
                violations.append(
                    f"A1: servers {other_pid} and {pid} disagree on tag "
                    f"{tag}: {other_value} vs {server.value}"
                )
        else:
            seen[tag] = (pid, server.value)
        if tag == INITIAL_TAG.as_tuple():
            if initial is None:
                initial = server.value
            continue
        if server.value not in written:
            violations.append(
                f"A2: server {pid} stores value {server.value} under tag "
                f"{tag}, but no write ever wrote it"
            )
    return violations


def _collect_inflight_elements(
    world: World, element_kinds: Tuple[str, ...]
) -> Dict[tuple, int]:
    """Count value-bearing messages in flight, per tag."""
    counts: Dict[tuple, int] = {}
    for channel in world.channels.values():
        for message in channel._queue:  # inspection-only access
            if message.kind in element_kinds:
                tag = message.get("tag")
                counts[tag] = counts.get(tag, 0) + 1
    return counts


def check_cas_invariants(handle: SystemHandle) -> List[str]:
    """C1 + C2 for CAS / CASGC systems."""
    violations: List[str] = []
    world = handle.world
    servers = [world.process(pid) for pid in handle.server_ids]
    code = servers[0].code
    k = code.k

    by_tag: Dict[tuple, Dict[int, int]] = {}
    highest_fin: Optional[tuple] = None
    for index, server in enumerate(servers):
        assert isinstance(server, CASServer)
        for tag, record in server.store.items():
            element, label = record
            if element is not None:
                by_tag.setdefault(tag, {})[index] = element
            if label == FIN and (
                highest_fin is None
                or Tag.from_tuple(tag) > Tag.from_tuple(highest_fin)
            ):
                highest_fin = tag

    for tag, symbols in by_tag.items():
        if len(symbols) >= k and not code.check_consistent(symbols):
            violations.append(
                f"C1: elements stored for tag {tag} are not one codeword"
            )

    if highest_fin is not None and highest_fin != INITIAL_TAG.as_tuple():
        stored = len(by_tag.get(highest_fin, {}))
        in_flight = _collect_inflight_elements(world, ("pre",)).get(
            highest_fin, 0
        )
        if stored + in_flight < k:
            violations.append(
                f"C2: highest finalized tag {highest_fin} has only "
                f"{stored} stored + {in_flight} in-flight elements < k={k}"
            )
    return violations


def check_coded_invariants(handle: SystemHandle) -> List[str]:
    """S1 for the coded SWMR register."""
    violations: List[str] = []
    world = handle.world
    servers = [world.process(pid) for pid in handle.server_ids]
    code = servers[0].code

    by_tag: Dict[tuple, Dict[int, int]] = {}
    for index, server in enumerate(servers):
        assert isinstance(server, CodedServer)
        for tag, element in server.store.items():
            by_tag.setdefault(tag, {})[index] = element
    for tag, symbols in by_tag.items():
        if len(symbols) >= code.k and not code.check_consistent(symbols):
            violations.append(
                f"S1: elements stored for tag {tag} are not one codeword"
            )
    return violations


#: algorithm name -> invariant checker
CHECKERS: Dict[str, Callable[[SystemHandle], List[str]]] = {
    "abd": check_abd_invariants,
    "swmr-abd": check_abd_invariants,
    "cas": check_cas_invariants,
    "casgc": check_cas_invariants,
    "coded-swmr": check_coded_invariants,
}


def invariant_checker_for(handle: SystemHandle) -> Callable[[SystemHandle], List[str]]:
    """The checker matching a handle's algorithm."""
    return CHECKERS[handle.algorithm]


def check_invariants_during(
    handle: SystemHandle,
    drive: Callable[[SystemHandle], None],
    max_steps: int = 100_000,
) -> int:
    """Run a driver's invocations to quiescence, checking every step.

    Raises ``AssertionError`` naming the first violated invariant and
    the step it appeared at; returns steps taken when clean.  At most
    ``max_steps`` deliveries are executed: a system that drains in
    exactly ``max_steps`` returns, one that needs more raises.
    """
    checker = invariant_checker_for(handle)
    drive(handle)
    world = handle.world
    for steps in range(max_steps):
        if world.step() is None:
            return steps
        violations = checker(handle)
        if violations:
            raise AssertionError(
                f"invariant violated at step {world.step_count}: "
                + "; ".join(violations)
            )
    if world.enabled_keys():
        raise AssertionError(f"no quiescence within {max_steps} steps")
    return max_steps
