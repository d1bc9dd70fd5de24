"""The atomicity checker against a brute-force reference.

The memoized search in :mod:`repro.consistency.atomicity`, with and
without the interval decomposition, must agree with a straightforward
(exponential) reference on every small history:
enumerate each subset of incomplete writes to include, each permutation
of the chosen operations, check real-time order and register legality.
Each witness the checker returns, in both modes, must be a real
linearization of the history, incomplete writes taken or dropped.
Hypothesis generates histories, and the seed explorer loop and the
exhaustive explorer supply every terminal history of two small
configurations, one of which violates atomicity.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.atomicity import check_atomicity
from repro.sim.events import OperationRecord
from repro.verification.explore import ScheduleExplorer
from tests.consistency.test_atomicity_decompose import assert_valid_witness
from tests.verification.test_explore import (
    INVERSION_FOLLOWUPS,
    inversion_prefix_world,
    swmr_write_read_world,
)
from tests.verification.test_seed_explorer_oracle import _abstract, _seed_explore


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
            verdict = check_atomicity(ops, **kwargs)
            assert verdict.ok == expected, (
                f"checker({kwargs})={verdict.ok}, brute-force={expected}, "
                f"history={history}"
            )
            if verdict.ok:
                assert_valid_witness(ops, 0, verdict.linearization)

    @settings(max_examples=100, deadline=None)
    @given(small_histories(), st.integers(min_value=0, max_value=2))
    def test_custom_initial_value_matches(self, ops, initial):
        assert (
            check_atomicity(ops, initial_value=initial).ok
            == brute_force_atomic(ops, initial_value=initial)
        )


#: Explored configurations: (build, follow-ups, terminal states up to
#: the clock and violating ones, then the same for the explorer, which
#: keys them up to a relabelling of the servers as well).
EXPLORED = {
    "swmr-write-read": (swmr_write_read_world, [], (18, 0), (4, 0)),
    "inversion-prefix": (
        inversion_prefix_world, INVERSION_FOLLOWUPS, (81, 6), (25, 3)
    ),
}


def _three_verdicts(ops) -> bool:
    """The decomposed search's verdict, after the monolithic search and
    the brute force agreed with it."""
    verdict = check_atomicity(ops).ok
    assert check_atomicity(ops, decompose=False).ok == verdict
    assert brute_force_atomic(ops) == verdict
    return verdict


class TestExplorerHistories:
    @pytest.mark.parametrize("name", sorted(EXPLORED))
    def test_three_checkers_agree_on_every_terminal_history(self, name):
        """The decomposed and monolithic searches and the brute force
        give one verdict to the history of every terminal state up to
        the clock (the seed loop's terminals, one per class), and to
        every history the explorer's checker sees; the explorer reports
        exactly the histories that verdict rejects, and rejects the
        same abstract histories as the seed loop."""
        build, followups, seed_counts, explorer_counts = EXPLORED[name]
        _, _, _, terminals = _seed_explore(
            build(), followups, lambda ops: True, up_to_the_clock=True
        )
        rejected = [
            _abstract(ops) for ops in terminals.values()
            if not _three_verdicts(ops)
        ]
        assert (len(terminals), len(rejected)) == seed_counts

        verdicts = []

        def recording(ops) -> bool:
            verdicts.append(_three_verdicts(ops))
            return verdicts[-1]

        result = ScheduleExplorer(
            checker=recording, followups=followups, max_states=50_000
        ).explore(build())
        assert result.exhausted
        assert len(verdicts) == result.executions_checked
        assert verdicts.count(False) == len(result.violations)
        assert (len(verdicts), verdicts.count(False)) == explorer_counts
        assert {_abstract(ops) for _, ops in result.violations} == set(rejected)
