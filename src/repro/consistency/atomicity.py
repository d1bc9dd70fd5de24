"""Linearizability (atomicity) checking for register histories.

A history is atomic iff there is a *linearization*: a total order of
operations that (a) respects real-time precedence (if a responded
before b was invoked, a comes first), and (b) is legal for a read/write
register (every read returns the most recently linearized write's
value, or the initial value).

The checker is one memoized depth-first search in the spirit of Wing &
Gong.  State is (set of linearized ops, current register value); the
memo makes repeated sub-configurations cheap.  Incomplete operations
are handled per the standard rules: an incomplete write may be
linearized (it may have taken effect) or dropped; incomplete reads are
always dropped (they returned nothing to explain).  A state is final
once every complete operation is linearized, and the search lazily
yields each register value a final state holds, once, with a witness
order.

Interval decomposition
----------------------

Wing & Gong search cost grows with the number of *concurrent*
operations, not the history length: whenever every operation invoked
so far has responded before the next invocation, the register value is
the only information that crosses the boundary.  ``check_atomicity``
therefore splits the history at those quiescent cut points (sort by
``invoke_step``; cut wherever the running max ``response_step`` is
below the next invocation) and runs the search on each segment once
per register value reachable at its start, threading those values
forward:

* a non-final segment contains only complete operations (incomplete
  ones extend to infinity, so they always land in the final segment),
  and every final value it yields, with its witness, joins the values
  reachable at the next segment;
* the final segment needs one linearization, so the check returns at
  its first yield.

Any global linearization must order each segment's operations as a
contiguous block (cross-segment pairs are precedence-ordered), and
within a block it is exactly a segment linearization from the threaded
value — so the decomposition returns the same verdict as the monolithic
search, in time near-linear in the number of segments.  Long chaos
histories, which are mostly sequential with short concurrent bursts,
check in milliseconds instead of blowing the state budget.  Pass
``decompose=False`` to force the single-segment search; the tests use
it as the oracle the decomposed verdict must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.consistency.history import History
from repro.errors import ConsistencyViolation
from repro.sim.events import OperationRecord


@dataclass
class AtomicityVerdict:
    """Outcome of an atomicity check."""

    ok: bool
    linearization: Optional[List[int]] = None  # op ids in linearized order
    reason: str = ""
    states_explored: int = 0

    def __bool__(self) -> bool:
        return self.ok


#: Hashable interval fingerprint of an operation: (op_id, invoke, response).
_Interval = Tuple[int, int, Optional[int]]


@lru_cache(maxsize=1024)
def _closure_from_intervals(
    intervals: Tuple[_Interval, ...],
) -> Dict[int, FrozenSet[int]]:
    """Precedence predecessors keyed on the hashable interval tuple.

    Cached: explorer runs and repeated chaos-report checks hand the
    checker the same interval pattern over and over, and the closure is
    the quadratic part of setup.  Callers must treat the returned dict
    as read-only (cache entries are shared).
    """
    preds: Dict[int, FrozenSet[int]] = {}
    for b_id, b_invoke, _ in intervals:
        preds[b_id] = frozenset(
            a_id
            for a_id, _, a_response in intervals
            if a_id != b_id and a_response is not None and a_response < b_invoke
        )
    return preds


def _precedence_closure(
    ops: Sequence[OperationRecord],
) -> Dict[int, FrozenSet[int]]:
    """For each op, the set of op ids that must be linearized before it."""
    return _closure_from_intervals(
        tuple((op.op_id, op.invoke_step, op.response_step) for op in ops)
    )


def _segments(ops: Sequence[OperationRecord]) -> List[List[OperationRecord]]:
    """Split a history at real-time quiescent points.

    Returns segments in invocation order such that every operation in
    an earlier segment precedes (responds strictly before the
    invocation of) every operation in a later segment.  Incomplete
    operations extend to infinity, so only the final segment can
    contain them.
    """
    ordered = sorted(ops, key=lambda op: op.invoke_step)
    segments: List[List[OperationRecord]] = []
    current: List[OperationRecord] = []
    max_end = float("-inf")
    for op in ordered:
        if current and max_end < op.invoke_step:
            segments.append(current)
            current = []
        current.append(op)
        end = op.response_step if op.is_complete else float("inf")
        if end > max_end:
            max_end = end
    if current:
        segments.append(current)
    return segments


class _SearchBudgetExceeded(Exception):
    """Internal signal: the memoized search hit ``max_states``."""


class _Budget:
    """Shared state counter across per-segment searches."""

    __slots__ = ("explored", "max_states")

    def __init__(self, max_states: int) -> None:
        self.explored = 0
        self.max_states = max_states

    def spend(self) -> None:
        self.explored += 1
        if self.explored > self.max_states:
            raise _SearchBudgetExceeded()


def _linearizations(
    ops: Sequence[OperationRecord], initial_value: int, budget: _Budget
) -> Iterator[Tuple[int, List[int]]]:
    """Yield ``(final value, witness)`` once per reachable final value.

    A state is final once every complete operation is linearized; an
    incomplete write may be linearized or dropped, and a dropped write
    appears in no witness (op ids in linearized order).  Lazy, so a
    caller that needs one linearization stops at the first yield.
    Memoized on (linearized set, value), marked when a state is pushed:
    the linearized set only grows along a path, so a state seen before
    is off the current path and its subtree is already searched.
    Iterative (explicit stack), so history length is not bounded by the
    recursion limit.
    """
    # Sorted by invocation, predecessor sets are monotone (a later
    # invocation can only have more precedences), so the candidate scan
    # can stop at the first op whose predecessors are not yet done.
    ops = sorted(ops, key=lambda op: op.invoke_step)
    must_linearize = frozenset(op.op_id for op in ops if op.is_complete)
    if not must_linearize:
        yield initial_value, []
        return
    preds = _precedence_closure(ops)

    def moves(done: FrozenSet[int], value: int):
        for op in ops:
            if op.op_id in done:
                continue
            if not preds[op.op_id] <= done:
                break
            if op.kind == "read":
                if op.value == value:
                    yield done | {op.op_id}, value, op.op_id
            else:
                yield done | {op.op_id}, op.value, op.op_id
                # An incomplete write may instead never take effect:
                # mark it done without changing the value, and leave it
                # out of the witness.
                if op.op_id not in must_linearize:
                    yield done | {op.op_id}, value, None

    memo: set = set()
    finals: set = set()
    order: List[int] = []
    budget.spend()
    # Each frame: (move generator, op id recorded on the edge into it).
    stack = [(moves(frozenset(), initial_value), None)]
    while stack:
        gen, _ = stack[-1]
        for next_done, next_value, op_id in gen:
            if must_linearize <= next_done:
                # The move into a final state linearizes a complete op,
                # so ``op_id`` is never a dropped write's ``None`` here.
                if next_value not in finals:
                    finals.add(next_value)
                    yield next_value, order + [op_id]
                continue
            key = (next_done, next_value)
            if key in memo:
                continue
            memo.add(key)
            budget.spend()
            if op_id is not None:
                order.append(op_id)
            stack.append((moves(next_done, next_value), op_id))
            break
        else:
            _, recorded = stack.pop()
            if recorded is not None:
                order.pop()


def check_atomicity(
    operations: Iterable[OperationRecord],
    initial_value: int = 0,
    max_states: int = 2_000_000,
    decompose: bool = True,
) -> AtomicityVerdict:
    """Check that a register history is linearizable.

    ``max_states`` bounds the memoized search (a safety valve for
    adversarial inputs); exceeding it returns a failed verdict with an
    explanatory reason rather than looping forever.  ``decompose``
    enables the interval decomposition described in the module
    docstring; disabling it forces the monolithic search (the verdict
    is the same either way).
    """
    history = operations if isinstance(operations, History) else History(operations)
    ops = list(history.operations)
    # Incomplete reads cannot constrain anything: drop them.
    ops = [
        op for op in ops if op.is_complete or op.kind == "write"
    ]
    budget = _Budget(max_states)
    segments = _segments(ops) if decompose else ([ops] if ops else [])

    try:
        #: Register values reachable at the current segment boundary,
        #: each with the witness linearization that produced it.
        frontier: Dict[int, List[int]] = {initial_value: []}
        for index, segment in enumerate(segments):
            is_final = index == len(segments) - 1
            advanced: Dict[int, List[int]] = {}
            for value, prefix in frontier.items():
                for final, witness in _linearizations(segment, value, budget):
                    if is_final:
                        return AtomicityVerdict(
                            ok=True,
                            linearization=prefix + witness,
                            states_explored=budget.explored,
                        )
                    if final not in advanced:
                        advanced[final] = prefix + witness
            if not advanced:
                return AtomicityVerdict(
                    ok=False,
                    reason="no legal linearization exists",
                    states_explored=budget.explored,
                )
            frontier = advanced
    except _SearchBudgetExceeded:
        return AtomicityVerdict(
            ok=False,
            reason=f"search budget of {max_states} states exceeded",
            states_explored=budget.explored,
        )
    # Empty history (or only incomplete reads): trivially atomic.
    return AtomicityVerdict(
        ok=True, linearization=[], states_explored=budget.explored
    )


def require_atomic(
    operations: Iterable[OperationRecord], initial_value: int = 0
) -> AtomicityVerdict:
    """Raise :class:`ConsistencyViolation` unless the history is atomic."""
    verdict = check_atomicity(operations, initial_value)
    if not verdict.ok:
        raise ConsistencyViolation(f"history is not atomic: {verdict.reason}")
    return verdict
