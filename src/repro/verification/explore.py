"""Exhaustive schedule exploration (bounded model checking).

Starting from a World with operations already invoked, the explorer
branches on every enabled delivery action, deduplicates states by a
*precedence key* (below), and collects every *maximal* execution (no
enabled actions left), once per distinct terminal key.  Each terminal
history is passed to a checker; any violation is reported with the
delivery schedule that produced it, giving a replayable
counterexample.

Complexity is the number of distinct states under the key, so keep
configurations tiny (3 servers, 2-3 operations).  ``max_states`` is a
hard cap; hitting it marks the result ``exhausted=False`` (the
explored prefix is still sound evidence — no violation found in it).

The state key: configuration and operation order, not clock
-----------------------------------------------------------

A state is keyed on what decides its future and its verdict, and
nothing else:

* every process digest and every non-empty channel's contents, as a
  flat tuple of small ints (:meth:`World.config_ids`): each distinct
  process or channel entry is interned once, in a table the explored
  World shares with its forks, so a state costs a few ints, not nested
  digest tuples, and an unchanged process or channel costs one
  identity test.  Interning is exact (equal ids iff equal entries), so
  the key decides equality as the digests themselves would, with no
  hash compaction and no collision probability;
* per operation ``(op_id, kind, value, rank)``, where ``rank`` is the
  number of invocations before the operation's response
  (``bisect_left`` of its ``response_step`` into the invocation steps,
  None while pending).  Only an invocation or a completion changes
  it, so the search rebuilds it only when the number of operations or
  of pending operations differs from the parent state's;
* with a channel adversary installed, the adversary's decision state
  (:meth:`~repro.faults.adversary.ChannelAdversary.state_digest`: RNG
  position, drop and duplicate counters, active partition).

The step counter and the absolute ``invoke_step``/``response_step``
are left out, so interleavings that reach one configuration with an
operation completed at a different step (one consumed a stale ack
first, say) are explored once.  This is sound for two reasons.

*Equal keys have equal continuations.*  The simulator is
deterministic given the action sequence, and no protocol handler reads
the step (``ctx.step`` feeds only observer spans).  Follow-ups fire when
their trigger completes, which the key records (rank is not None), not
at a step.  Later invocations all come after every recorded response,
so no rank in the key changes along a continuation, and equal action
sequences extend equal keys to equal keys.  Without the adversary term
this fails: the adversary's RNG and caps decide each delivery's fate,
and only the step counter used to keep those states apart.

*Equal keys have equal verdicts.*  Invocation steps increase with
``op_id``, and a response is never stamped at an invocation's step, so
``a.response_step < b.invoke_step`` iff ``b.op_id >= rank(a)``: the key
fixes every operation's value, completion and real-time precedence.
A :data:`HistoryChecker` must decide on exactly those (the contract on
:class:`ScheduleExplorer`); atomicity and regularity do.

Server symmetry: one state per relabelling of the servers
---------------------------------------------------------

When every process of the explored World declares
:attr:`~repro.sim.process.Process.opaque_server_ids` and no channel
adversary is installed, the configuration part of the key is the
smallest, over all ``N!`` permutations ``p`` of the server ids, of the
sorted ids of ``p`` applied to every entry.  Relabelling an entry is a
structural map over its tuples and frozensets (the declaring digests
hold server-id sets as frozensets, so nothing needs re-sorting), and
an entry's image under each permutation is built and interned once, in
a memo that lives with the intern table (:attr:`InternTable.images`).
A sorted tuple of ids is a set of entries, and entries carry their pid
or channel key, so two states get one key iff one is a relabelling of
the other.  This is sound for the same two reasons.

*Relabelled states have relabelled continuations.*  A declaring
process's handlers commute with a relabelling ``p``: delivering on
``p(c)`` in ``p(S)`` reaches ``p`` of what delivering on ``c`` reaches
in ``S``, and ``p(S)`` enables exactly ``p`` of the channels ``S``
enables.  So every state reachable from ``p(S)`` is ``p`` of one
reachable from ``S``, and a search that keeps one state per orbit
still reaches every reachable state's orbit.

*Relabelled states have equal verdicts.*  Operations name clients, not
servers, so ``p`` leaves the history part of the key as it is, and
one representative per orbit reaches every (history, verdict) pair.

Nothing else is reduced.  Coded algorithms (coded SWMR, CAS, CASGC)
do not declare it: server ``i`` holds code element ``i``, so their
handlers do not commute with a relabelling.  An adversary's
configuration and decision state name processes (lossy processes,
partition sides, a Byzantine band), so relabelling a state need not
relabel its future: every adversarial search keeps the unreduced key.
A follow-up must treat servers alike too (invoking an operation at a
client does).  Reported schedules are the delivery paths the search
really took, so :meth:`ScheduleExplorer.replay` and explore bundles
are unchanged.  :attr:`ExplorationResult.symmetry_order` records the
group's order (``N!``, or 1 when unreduced).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import permutations
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.consistency.atomicity import check_atomicity
from repro.errors import SimulationError
from repro.sim.events import OperationRecord
from repro.sim.network import InternTable, World
from repro.sim.process import ServerProcess

ChannelKey = Tuple[str, str]
HistoryChecker = Callable[[list], bool]

#: Longest delivery path explored; a deeper one ends the search with
#: ``exhausted=False``, like hitting ``max_states``.
MAX_DEPTH = 400


class _StopSearch(Exception):
    """Ends the search early: ``max_states`` or :data:`MAX_DEPTH` was
    hit, or the first violation was found under
    ``stop_at_first_violation``.  Caught once, in
    :meth:`ScheduleExplorer.explore`, which marks the result
    ``exhausted=False``."""


@dataclass
class ExplorationResult:
    """Outcome of an exhaustive schedule exploration."""

    states_visited: int
    #: Terminal states checked: one per distinct terminal state key
    #: (configuration plus values and precedence), however many
    #: schedules reach it.  Under server symmetry the configuration is
    #: taken up to a relabelling of the servers, so terminals that
    #: differ only by one count once; terminals whose server or client
    #: states differ otherwise count separately, so this can exceed the
    #: number of distinct histories.
    executions_checked: int
    exhausted: bool  # True iff the full interleaving space was covered
    violations: List[Tuple[Tuple[ChannelKey, ...], list]] = field(
        default_factory=list
    )
    incomplete_terminals: int = 0  # quiesced with operations still pending
    #: Order of the server-permutation group states were keyed up to:
    #: ``N!`` under server symmetry, 1 when unreduced.
    symmetry_order: int = 1

    @property
    def ok(self) -> bool:
        """No violating execution found."""
        return not self.violations

    def counterexample(
        self,
    ) -> Optional[Tuple[Tuple[ChannelKey, ...], list]]:
        """The first violating ``(delivery schedule, history)``, if any.

        The schedule is exactly what :meth:`ScheduleExplorer.replay`
        consumes and what a ``repro.bundle/1`` explore artifact records
        (see :func:`repro.triage.bundle.bundle_from_exploration`); DFS
        order is deterministic, so "first" is stable across runs.
        """
        return self.violations[0] if self.violations else None


def _history_key(ops: Sequence[OperationRecord]) -> tuple:
    """Per operation ``(op_id, kind, value, rank)`` (module docstring)."""
    invoke_steps = [op.invoke_step for op in ops]
    return tuple(
        (
            op.op_id,
            op.kind,
            op.value,
            None
            if op.response_step is None
            else bisect_left(invoke_steps, op.response_step),
        )
        for op in ops
    )


_SCALARS = frozenset({int, bool, float, bytes, type(None)})


def _relabel(value, mapping: Dict[str, str]):
    """``value`` with every string renamed through ``mapping``: the
    structural map a declaring digest admits (tuples, frozensets and
    scalars only)."""
    kind = type(value)
    if kind is str:
        return mapping.get(value, value)
    if kind is tuple:
        return tuple([_relabel(item, mapping) for item in value])
    if kind is frozenset:
        return frozenset([_relabel(item, mapping) for item in value])
    if kind in _SCALARS:
        return value
    raise SimulationError(
        f"cannot relabel a {kind.__name__} in a state digest: a process "
        "that declares opaque_server_ids digests tuples, frozensets and "
        "scalars only"
    )


class _ServerSymmetry:
    """Keys one World family's configurations up to a relabelling of
    its servers (module docstring).

    ``images[p][i]`` is the interned id of entry ``i``'s image under
    permutation ``p``.  The lists live in the table's memo, so each
    image is built once per table, and they grow with it: interning an
    image can add an entry, whose images are built in turn.
    """

    def __init__(self, table: InternTable, servers: Sequence[str]) -> None:
        self.table = table
        self.mappings = [
            dict(zip(servers, image)) for image in permutations(servers)
        ]
        self.images = [
            table.images.setdefault(tuple(sorted(mapping.items())), [])
            for mapping in self.mappings
        ]
        self.covered = 0  # every image list holds this many entries

    @classmethod
    def of(cls, world: World) -> Optional["_ServerSymmetry"]:
        """The symmetry of ``world``: None unless every process declares
        opaque server ids, no adversary is installed and there are at
        least two servers."""
        processes = world.processes
        if world.adversary is not None or not all(
            process.opaque_server_ids for process in processes.values()
        ):
            return None
        servers = sorted(
            pid for pid, process in processes.items()
            if isinstance(process, ServerProcess)
        )
        return cls(world.interned, servers) if len(servers) > 1 else None

    def canonical(self, ids: Sequence[int]) -> Tuple[int, ...]:
        """The smallest sorted image of ``ids`` over every permutation."""
        if len(self.table.entries) != self.covered:
            self._extend()
        pick = itemgetter(*ids)  # a World has at least two processes
        return tuple(min([sorted(pick(image)) for image in self.images]))

    def _extend(self) -> None:
        entries = self.table.entries
        intern = self.table.intern
        while True:
            count = len(entries)
            for mapping, image in zip(self.mappings, self.images):
                while len(image) < len(entries):
                    image.append(intern(_relabel(entries[len(image)], mapping)))
            if len(entries) == count:
                self.covered = count
                return


def _state_key(
    world: World,
    history: Optional[tuple] = None,
    symmetry: Optional[_ServerSymmetry] = None,
) -> tuple:
    """The precedence key of a state (see the module docstring):
    ``(config ids, history, adversary decision state)``.

    The configuration part is :meth:`World.config_ids`, or its
    canonical relabelling under ``symmetry``, so keys compare only
    within one World family (a World and its forks).  ``history`` is
    the history part when the caller knows it is unchanged.
    """
    if history is None:
        history = _history_key(world.operations)
    adversary = world.adversary
    config = world.config_ids()
    if symmetry is not None:
        config = symmetry.canonical(config)
    return (
        config,
        history,
        None if adversary is None else adversary.state_digest(),
    )


class ScheduleExplorer:
    """Depth-first exhaustive exploration with state-key deduplication.

    The ``checker`` contract: a verdict is a function of the
    operations' kinds, values, completion and real-time precedence
    only, never of absolute ``invoke_step``/``response_step`` values.
    The state key keeps exactly those (see the module docstring), so
    each terminal state is checked once however many schedules reach
    it, and a checker that read the steps could see only one of them.

    ``followups`` supports *sequential* operations (the ingredient a
    new/old inversion needs): each entry ``(trigger_op_id, invoke)``
    calls ``invoke(world)`` deterministically as soon as the trigger
    operation has completed — invocation timing adds no branching, only
    delivery order does.  A reported schedule therefore lists
    deliveries only, and :meth:`replay` re-runs it with the same
    follow-ups.

    ``stop_at_first_violation`` turns the explorer into a
    counterexample finder: DFS returns as soon as one violating
    terminal execution is recorded.

    When the explored World is symmetric in its servers (module
    docstring), states are keyed up to a relabelling of the server
    ids; the follow-ups must then name no server.
    """

    def __init__(
        self,
        checker: Optional[HistoryChecker] = None,
        max_states: int = 200_000,
        followups: Optional[Sequence[Tuple[int, Callable[[World], None]]]] = None,
        stop_at_first_violation: bool = False,
    ) -> None:
        self.checker = checker or (lambda ops: check_atomicity(ops).ok)
        self.max_states = max_states
        self.followups = list(followups or [])
        self.stop_at_first_violation = stop_at_first_violation

    def _fire_followups(self, state: World, base_ops: int) -> None:
        for i, (trigger, invoke) in enumerate(self.followups):
            expected_ops = base_ops + i
            if len(state.operations) > expected_ops:
                continue  # already fired in this state's history
            trigger_op = state.operations[trigger]
            if trigger_op.is_complete:
                invoke(state)
            else:
                break  # followups fire in order

    def explore(self, world: World) -> ExplorationResult:
        """Explore every schedule from the World's current point."""
        result = ExplorationResult(
            states_visited=0, executions_checked=0, exhausted=True
        )
        # Tracing costs memory per fork and the schedule path already
        # identifies executions; turn it off for the search.
        world = world.fork()
        world.record_trace = False
        try:
            _Search(self, world, result).visit(world, (), None, None)
        except _StopSearch:
            result.exhausted = False
        return result

    def replay(
        self, build_and_invoke: Callable[[], World], path: Sequence[ChannelKey]
    ) -> World:
        """Re-execute a delivery schedule the way :meth:`explore` ran it.

        ``build_and_invoke`` builds the World :meth:`explore` started
        from; ``path`` is a schedule it reported.  Follow-ups fire by
        the explorer's rule, before the first delivery and after each
        one, so a counterexample that needed one replays in full.
        """
        world = build_and_invoke()
        base_ops = len(world.operations)
        self._fire_followups(world, base_ops)
        for src, dst in path:
            world.deliver(src, dst)
            self._fire_followups(world, base_ops)
        return world


class _Search:
    """The depth-first search of one :meth:`ScheduleExplorer.explore` call.

    An object with a recursive method, not a closure that calls itself:
    that closure (like an exception class defined per call) is a
    reference cycle, which would leave the visited set and the last
    World to the cyclic collector instead of freeing them on return.
    """

    def __init__(
        self, explorer: ScheduleExplorer, world: World, result: ExplorationResult
    ) -> None:
        self.explorer = explorer
        self.result = result
        self.visited: Set[tuple] = set()
        self.base_ops = len(world.operations)
        self.symmetry = _ServerSymmetry.of(world)
        if self.symmetry is not None:
            result.symmetry_order = len(self.symmetry.mappings)

    def visit(
        self,
        state: World,
        path: Tuple[ChannelKey, ...],
        history: Optional[tuple],
        counts: Optional[Tuple[int, int]],
    ) -> None:
        """Explore ``state``; ``history`` and ``counts`` are the parent
        state's history key and its numbers of operations and of
        pending operations (None at the root)."""
        explorer = self.explorer
        result = self.result
        explorer._fire_followups(state, self.base_ops)
        # Only an invocation (more operations) or a completion (fewer
        # pending) changes the history part of the key, and no edge can
        # do one and undo it: follow-ups only add operations.
        operations = state.operations
        now = (len(operations), len(state.pending_operations()))
        if now != counts:
            history = _history_key(operations)
        key = _state_key(state, history, self.symmetry)
        if key in self.visited:
            return
        self.visited.add(key)
        result.states_visited += 1
        if result.states_visited > explorer.max_states or len(path) > MAX_DEPTH:
            raise _StopSearch()

        enabled = state.enabled_channels()
        if not enabled:
            result.executions_checked += 1
            if now[1]:
                result.incomplete_terminals += 1
            if not explorer.checker(list(operations)):
                result.violations.append((path, list(operations)))
                if explorer.stop_at_first_violation:
                    raise _StopSearch()
            return
        last = len(enabled) - 1
        for index, key_choice in enumerate(enabled):
            # The parent state is dead after its final branch, so the
            # last child mutates it in place instead of forking — on
            # non-branching chains this eliminates forking entirely.
            child = state if index == last else state.fork()
            child.deliver(*key_choice)
            self.visit(child, path + (key_choice,), history, now)


def explore_all_schedules(
    build_and_invoke: Callable[[], World],
    checker: Optional[HistoryChecker] = None,
    max_states: int = 200_000,
) -> ExplorationResult:
    """Convenience driver: build a World with invocations, explore it.

    ``build_and_invoke`` returns a fresh World with every operation
    already invoked (concurrent from the start — the interesting case
    for consistency).
    """
    explorer = ScheduleExplorer(checker=checker, max_states=max_states)
    return explorer.explore(build_and_invoke())
