"""Differential oracle: the seed explorer loop against ScheduleExplorer.

The seed explorer is the simplest correct exhaustive search: it forks
every branch with ``copy.deepcopy``, deduplicates states by the same
full-configuration digest, and applies no reduction.  The production
explorer adds copy-on-write forks, in-place stepping of the last child
and sleep sets; none of that may change what the search finds.

* Without reduction, ``ScheduleExplorer`` must visit exactly the seed
  loop's states and reach exactly its terminal histories.
* With sleep sets (``por=True``) it may visit a different number of
  states, but it must reach the same terminal histories with the same
  verdicts.

The configuration is the ``repro explore`` default (SWMR-ABD, N=3,
f=1, 2-bit values, write || read) advanced five scheduler steps, so
the deepcopy loop stays around a second: 547 states, 108 executions.
"""

import collections
import copy

from repro.consistency.atomicity import check_atomicity
from repro.consistency.regularity import check_regular
from repro.sim.snapshot import world_digest
from repro.verification.explore import ScheduleExplorer

from tests.verification.test_explore import swmr_write_read_world


def _history(ops) -> tuple:
    return tuple(
        (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
        for op in ops
    )


def _checker(ops) -> bool:
    return check_atomicity(ops).ok and check_regular(ops).ok


def _seed_explore(world):
    """The seed explorer: deepcopy fork per branch, no reduction.

    Returns ``(states, terminals)``, where ``terminals`` counts each
    ``(history, verdict)`` over the maximal executions.
    """
    visited = set()
    terminals = collections.Counter()

    def visit(state) -> None:
        key = (world_digest(state), _history(state.operations))
        if key in visited:
            return
        visited.add(key)
        enabled = state.enabled_channels()
        if not enabled:
            ops = list(state.operations)
            terminals[(_history(ops), _checker(ops))] += 1
            return
        for choice in enabled:
            child = copy.deepcopy(state)
            child.deliver(*choice)
            visit(child)

    root = copy.deepcopy(world)
    root.record_trace = False
    visit(root)
    return len(visited), terminals


def _explore(world, por: bool):
    terminals = collections.Counter()

    def checker(ops) -> bool:
        verdict = _checker(ops)
        terminals[(_history(ops), verdict)] += 1
        return verdict

    result = ScheduleExplorer(checker=checker, por=por).explore(world)
    assert result.exhausted
    return result, terminals


def _stepped_world():
    world = swmr_write_read_world()
    for _ in range(5):
        world.step()
    return world


def test_explorer_matches_the_seed_loop():
    states, terminals = _seed_explore(_stepped_world())
    assert (states, sum(terminals.values())) == (547, 108)

    full, full_terminals = _explore(_stepped_world(), por=False)
    assert full.states_visited == states
    assert full.executions_checked == sum(terminals.values())
    assert full_terminals == terminals

    reduced, reduced_terminals = _explore(_stepped_world(), por=True)
    assert reduced.executions_checked == sum(terminals.values())
    assert reduced_terminals == terminals
    assert full.ok and reduced.ok
