"""The atomicity checker against a brute-force reference.

The memoized search in :mod:`repro.consistency.atomicity`, with and
without the interval decomposition, must agree with a straightforward
(exponential) reference on every small history:
enumerate each subset of incomplete writes to include, each permutation
of the chosen operations, check real-time order and register legality.
Hypothesis generates histories, and the exhaustive explorer supplies
every terminal history of two small configurations, one of which
violates atomicity.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.atomicity import check_atomicity
from repro.sim.events import OperationRecord
from repro.verification.explore import ScheduleExplorer
from tests.verification.test_explore import (
    INVERSION_FOLLOWUPS,
    inversion_prefix_world,
    swmr_write_read_world,
)


def brute_force_atomic(ops, initial_value=0):
    """Reference implementation: O(2^w * n!) search."""
    complete = [op for op in ops if op.is_complete]
    incomplete_writes = [
        op for op in ops if not op.is_complete and op.kind == "write"
    ]
    complete = [op for op in complete]

    def legal(sequence):
        value = initial_value
        for op in sequence:
            if op.kind == "write":
                value = op.value
            elif op.value != value:
                return False
        return True

    def respects_real_time(sequence):
        position = {op.op_id: i for i, op in enumerate(sequence)}
        for a in sequence:
            for b in sequence:
                if a.op_id != b.op_id and a.precedes(b):
                    if position[a.op_id] > position[b.op_id]:
                        return False
        return True

    for mask in range(1 << len(incomplete_writes)):
        chosen = complete + [
            w for i, w in enumerate(incomplete_writes) if mask & (1 << i)
        ]
        for sequence in permutations(chosen):
            if respects_real_time(sequence) and legal(sequence):
                return True
    return False


# -- history generation -------------------------------------------------------

@st.composite
def small_histories(draw):
    """Random well-formed histories of at most 5 operations."""
    num_ops = draw(st.integers(min_value=0, max_value=5))
    ops = []
    for op_id in range(num_ops):
        kind = draw(st.sampled_from(["read", "write"]))
        invoke = draw(st.integers(min_value=0, max_value=12))
        complete = draw(st.booleans())
        response = (
            invoke + draw(st.integers(min_value=1, max_value=8))
            if complete
            else None
        )
        value = draw(st.integers(min_value=0, max_value=2))
        if kind == "read" and response is None:
            value = None
        ops.append(
            OperationRecord(
                op_id=op_id,
                client=f"c{op_id}",  # one client per op: no overlap rules
                kind=kind,
                value=value,
                invoke_step=invoke,
                response_step=response,
            )
        )
    return ops


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(small_histories())
    def test_checker_matches_reference(self, ops):
        expected = brute_force_atomic(ops)
        history = [(o.kind, o.value, o.invoke_step, o.response_step) for o in ops]
        for kwargs in ({}, {"decompose": False}):
            actual = check_atomicity(ops, **kwargs).ok
            assert actual == expected, (
                f"checker({kwargs})={actual}, brute-force={expected}, "
                f"history={history}"
            )

    @settings(max_examples=100, deadline=None)
    @given(small_histories(), st.integers(min_value=0, max_value=2))
    def test_custom_initial_value_matches(self, ops, initial):
        assert (
            check_atomicity(ops, initial_value=initial).ok
            == brute_force_atomic(ops, initial_value=initial)
        )


#: Explorer configurations: (build, follow-ups, terminal histories,
#: violating ones).
EXPLORED = {
    "swmr-write-read": (swmr_write_read_world, [], 18, 0),
    "inversion-prefix": (inversion_prefix_world, INVERSION_FOLLOWUPS, 81, 6),
}


class TestExplorerHistories:
    @pytest.mark.parametrize("name", sorted(EXPLORED))
    def test_three_checkers_agree_on_every_terminal_history(self, name):
        """The explorer's checker sees each terminal history once; the
        decomposed and monolithic searches and the brute force give it
        one verdict, and the explorer reports exactly the histories
        that verdict rejects."""
        build, followups, terminals, violating = EXPLORED[name]
        verdicts = []

        def recording(ops) -> bool:
            verdict = check_atomicity(ops).ok
            assert check_atomicity(ops, decompose=False).ok == verdict
            assert brute_force_atomic(ops) == verdict
            verdicts.append(verdict)
            return verdict

        result = ScheduleExplorer(
            checker=recording, followups=followups, max_states=50_000
        ).explore(build())
        assert result.exhausted
        assert len(verdicts) == result.executions_checked == terminals
        assert verdicts.count(False) == len(result.violations) == violating
