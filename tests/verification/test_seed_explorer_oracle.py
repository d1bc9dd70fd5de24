"""Differential oracle: the seed explorer loop against ScheduleExplorer.

The seed explorer is the simplest correct exhaustive search: it forks
every branch with ``copy.deepcopy``, applies no reduction, and keys
each state on the concrete World — ``world_digest`` (step counter
included), every operation's absolute ``invoke_step`` and
``response_step``, and, under a channel adversary, the adversary's RNG
position, cap counters and partition.  The production explorer keys states on
configuration and operation order instead of the clock, forks
copy-on-write and steps its last child in place; none of that may
change what the search finds.

Both sides are compared through an abstraction computed here, from
the histories alone: each operation's value and completion, and the
set of pairs ``(a, b)`` with ``a.response_step < b.invoke_step``.
``ScheduleExplorer``

* reaches exactly the seed loop's set of ``(abstract history,
  verdict)`` pairs, violations included;
* checks each terminal once per distinct terminal state up to the
  clock — (process digests, channel digests, abstract history,
  adversary decision state): ``executions_checked`` equals the number
  of those among the seed loop's terminals;
* visits exactly one state per distinct state up to the clock that
  the seed loop reaches, and so no more states than
  the seed loop.  A key that merges more (one that drops the
  adversary's state, or keeps only whether each operation completed)
  visits fewer.

On the ABD-family configurations without an adversary (SWMR-ABD and
multi-writer ABD: servers are interchangeable there) both counts are
taken up to a permutation of the server ids as well: the seed loop
groups its states and terminals into classes by its own brute-force
relabelling of ``process_digests``/``channel_digests`` (every
permutation, entries re-sorted), and the explorer must visit one state
and check one terminal per class.  Which configurations are symmetric
is listed here, per configuration, not read from the processes, so
declaring coded SWMR symmetric, or reducing under an adversary, makes
the explorer visit fewer states than the ungrouped count.

The configurations are the ``repro explore`` default advanced five
steps, coded SWMR with k=2 advanced nine, the inversion prefix with its follow-up read (its readers skip
the write-back phase, ``read_write_back=False``: a seeded atomicity
bug both sides must find), a write that completes before or after a
follow-up invocation, a write under a duplicating adversary,
seeded random small configurations (SWMR-ABD or coded SWMR, an
optional follow-up read and duplicating adversary, a random delivery
prefix), each under about 1,500 concrete states, and multi-writer ABD
with two writes and a read (ν=2, the regime where CAS storage grows
with the number of concurrent writes) after a seeded random delivery
prefix, checked for atomicity only.  The production explorer keys
states on interned ids (``World.config_ids``); the seed loop keys on
the digests themselves, so a merge or split of states by the ids
shows up as a state count that differs.
"""

import copy
import math
import random
from itertools import permutations

import pytest

from repro.consistency.atomicity import check_atomicity
from repro.consistency.regularity import check_regular
from repro.faults.adversary import AdversaryConfig, ChannelAdversary
from repro.registers.abd import build_abd_system
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.registers.coded_swmr import build_coded_swmr_system
from repro.sim.process import ServerProcess
from repro.sim.snapshot import world_digest
from repro.verification.explore import ScheduleExplorer

from tests.verification.test_explore import (
    INVERSION_FOLLOWUPS,
    inversion_prefix_world,
    one_reply_each_world,
    swmr_write_read_world,
)


def _concrete(ops) -> tuple:
    return tuple(
        (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
        for op in ops
    )


def _abstract(ops) -> tuple:
    """Values, completion and real-time precedence; no step numbers."""
    values = tuple((op.op_id, op.kind, op.value, op.is_complete) for op in ops)
    precedes = frozenset(
        (a.op_id, b.op_id)
        for a in ops
        for b in ops
        if a.is_complete and a.response_step < b.invoke_step
    )
    return values, precedes


def _checker(ops) -> bool:
    return check_atomicity(ops).ok and check_regular(ops).ok


def _atomic(ops) -> bool:
    """The checker for multi-writer histories (regularity as
    ``check_regular`` checks it is single-writer only)."""
    return check_atomicity(ops).ok


def _adversary_state(world):
    """The adversary's RNG position, the counters its caps read, and
    its partition: what its next decisions depend on."""
    adversary = world.adversary
    if adversary is None:
        return None
    return (
        adversary.rng.getstate(),
        adversary.drops,
        adversary.duplicates,
        adversary.partition,
    )


def _second_read(world) -> None:
    world.invoke_read("r001")


def _fire_followups(state, followups, base_ops: int) -> None:
    for index, (trigger, invoke) in enumerate(followups):
        if len(state.operations) > base_ops + index:
            continue
        if not state.operations[trigger].is_complete:
            break
        invoke(state)


def _abstract_state(state) -> tuple:
    """A World up to the clock: configuration, abstract history and
    the adversary's decision state."""
    return (
        state.process_digests(),
        state.channel_digests(),
        _abstract(state.operations),
        _adversary_state(state),
    )


def _rename(value, mapping):
    """``value`` with every server id in it renamed through ``mapping``."""
    if isinstance(value, str):
        return mapping.get(value, value)
    if isinstance(value, tuple):
        return tuple(_rename(item, mapping) for item in value)
    if isinstance(value, frozenset):
        return frozenset(_rename(item, mapping) for item in value)
    return value


def _server_class(abstract, servers) -> frozenset:
    """Every relabelling of a state up to the clock under a permutation
    of ``servers``: two states are in one class iff these are equal."""
    processes, channels, history, adversary = abstract
    relabellings = set()
    for image in permutations(servers):
        mapping = dict(zip(servers, image))
        relabellings.add((
            tuple(sorted(_rename(entry, mapping) for entry in processes)),
            tuple(sorted(_rename(entry, mapping) for entry in channels)),
            history,
            adversary,
        ))
    return frozenset(relabellings)


def _seed_explore(world, followups=(), checker=_checker, up_to_the_clock=False):
    """The seed explorer: deepcopy fork per branch, concrete key, no
    reduction.

    Returns ``(states, outcomes, abstract_states, terminals)``: the
    number of concrete states, the set of ``(abstract history,
    verdict)`` pairs, the set of all states up to the clock
    (:func:`_abstract_state`) and a dict from each terminal one to
    the history of the first concrete terminal found in it.

    ``up_to_the_clock`` keys on :func:`_abstract_state` and forks
    copy-on-write instead: the same classes and terminals, for a
    caller that needs only those on a configuration where the concrete
    search is too slow (about 16 s from the ``repro explore`` default's
    root, where it counts 9,629 concrete states).
    """
    visited = set()
    outcomes = set()
    abstract_states = set()
    terminals = {}
    base_ops = len(world.operations)

    def visit(state) -> None:
        _fire_followups(state, followups, base_ops)
        abstract = _abstract_state(state)
        if up_to_the_clock:
            key = abstract
        else:
            key = (
                world_digest(state),
                _concrete(state.operations),
                _adversary_state(state),
            )
        if key in visited:
            return
        visited.add(key)
        abstract_states.add(abstract)
        enabled = state.enabled_channels()
        if not enabled:
            ops = list(state.operations)
            outcomes.add((_abstract(ops), checker(ops)))
            terminals.setdefault(abstract, ops)
            return
        for choice in enabled:
            child = state.fork() if up_to_the_clock else copy.deepcopy(state)
            child.deliver(*choice)
            visit(child)

    root = copy.deepcopy(world)
    root.record_trace = False
    visit(root)
    return len(visited), outcomes, abstract_states, terminals


def _explore(world, followups=(), checker=_checker):
    outcomes = set()

    def recording(ops) -> bool:
        verdict = checker(ops)
        outcomes.add((_abstract(ops), verdict))
        return verdict

    result = ScheduleExplorer(checker=recording, followups=followups).explore(
        world
    )
    assert result.exhausted
    return result, outcomes


def _assert_agree(build, followups=(), checker=_checker, symmetric=False):
    """The explorer against the seed loop; returns the seed loop's
    state count and outcomes and the explorer's result.

    ``symmetric`` says the configuration's servers are interchangeable
    (ABD family, no adversary): states and terminals are then counted
    up to a permutation of the server ids."""
    world = build()
    states, outcomes, abstract_states, terminals = _seed_explore(
        world, followups, checker
    )
    order = 1
    if symmetric:
        servers = sorted(
            pid for pid, process in world.processes.items()
            if isinstance(process, ServerProcess)
        )
        order = math.factorial(len(servers))
        abstract_states = {_server_class(a, servers) for a in abstract_states}
        terminals = {_server_class(t, servers) for t in terminals}
    result, found = _explore(build(), followups, checker)
    assert found == outcomes
    assert result.executions_checked == len(terminals)
    assert result.ok == all(verdict for _, verdict in outcomes)
    # One visit per state (or class) up to the clock: no more, no fewer.
    assert result.states_visited == len(abstract_states) <= states
    assert result.symmetry_order == order
    return states, outcomes, result


def _stepped_world():
    world = swmr_write_read_world()
    for _ in range(5):
        world.step()
    return world


def test_explorer_matches_the_seed_loop():
    states, outcomes, full = _assert_agree(_stepped_world, symmetric=True)
    assert states == 547
    assert (full.states_visited, full.executions_checked) == (49, 2)
    assert full.ok


def test_coded_swmr_matches_the_seed_loop():
    """Coded SWMR with a real code (N=4, f=1, so k=2): write || read
    advanced nine scheduler steps."""

    def build():
        handle = build_coded_swmr_system(n=4, f=1, value_bits=2)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 1)
        world.invoke_read(handle.reader_ids[0])
        for _ in range(9):
            world.step()
        return world

    states, _, full = _assert_agree(build)
    assert states == 622
    assert (full.states_visited, full.executions_checked) == (190, 12)


def test_inversion_prefix_with_its_followup_read():
    """The seeded bug: the inversion prefix's readers skip the
    write-back phase (``read_write_back=False``), so once read 1 has
    returned the new value from s000 and s000 crashes, the follow-up
    read can still see the old one.  Both sides find the new/old
    inversion, reads [2, 1]."""

    def build():
        world = inversion_prefix_world()
        for channel in (
            ("r000", "s000"), ("r000", "s001"), ("s000", "r000"),
            ("s000", "w000"), ("r000", "s002"), ("s002", "r000"),
            ("s001", "r000"),
        ):
            world.deliver(*channel)
        world.crash("s000")
        return world

    states, outcomes, full = _assert_agree(
        build, INVERSION_FOLLOWUPS, symmetric=True
    )
    assert states == 1_379
    assert (full.states_visited, full.executions_checked) == (368, 4)
    inversions = [
        history
        for history, verdict in outcomes
        if not verdict
        and [v for _, kind, v, _ in history[0] if kind == "read"] == [2, 1]
    ]
    assert inversions and not full.ok


def test_completion_order_against_a_followup_invocation():
    """The write and read 1 each wait for one last reply, and read 1's
    completion invokes read 2.  Both orders of the two replies reach
    one configuration, but the write precedes read 2 in one history
    and overlaps it in the other: the key must keep them apart."""

    states, outcomes, full = _assert_agree(
        one_reply_each_world, [(1, _second_read)], symmetric=True
    )
    assert (states, full.states_visited, len(outcomes)) == (109, 44, 2)


def _adversarial_world(seed: int):
    """A write under a duplicating adversary seeded with ``seed``."""
    handle = build_swmr_abd_system(n=3, f=1, value_bits=2, num_readers=1)
    world = handle.world
    world.adversary = ChannelAdversary(
        AdversaryConfig(duplicate_probability=0.3, max_duplicates=2),
        seed=seed,
    )
    world.invoke_write(handle.writer_ids[0], 1)
    return world


@pytest.mark.parametrize("seed", [9, 0])
def test_adversarial_world_keys_the_adversary(seed):
    """Duplicated deliveries reach one configuration under different
    RNG positions and duplicate counts, and each is a different
    future: the key must keep them apart."""
    states, _, full = _assert_agree(lambda: _adversarial_world(seed))
    assert full.states_visited < states


def _random_config(seed: int):
    """A seeded small configuration: ``(build, followups, symmetric)``."""
    rng = random.Random(seed)
    coded = rng.random() < 0.5
    followup = rng.random() < 0.5
    write_back = rng.random() < 0.5
    adversary_seed = rng.randrange(1_000) if rng.random() < 0.3 else None
    prefix_seed = rng.randrange(1_000)
    prefix_length = rng.randrange(8, 12)
    readers = 2 if followup else 1

    def build():
        if coded:
            handle = build_coded_swmr_system(
                n=3, f=1, value_bits=2, num_readers=readers
            )
        else:
            handle = build_swmr_abd_system(
                n=3, f=1, value_bits=2, num_readers=readers,
                read_write_back=write_back,
            )
        world = handle.world
        if adversary_seed is not None:
            world.adversary = ChannelAdversary(
                AdversaryConfig(duplicate_probability=0.3, max_duplicates=1),
                seed=adversary_seed,
            )
        world.invoke_write("w000", 1)
        world.invoke_read("r000")
        prefix = random.Random(prefix_seed)
        for _ in range(prefix_length):
            enabled = world.enabled_channels()
            if not enabled:
                break
            world.deliver(*prefix.choice(enabled))
        return world

    symmetric = not coded and adversary_seed is None
    return build, ([(1, _second_read)] if followup else []), symmetric


#: Seeds of :func:`_random_config` whose seed-loop search stays under
#: 500 concrete states (about a second), covering both algorithms,
#: follow-ups, write-back on and off, and the adversary.
RANDOM_SEEDS = (2, 6, 16, 28, 29, 40, 43, 44, 46, 52, 53)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_small_configurations(seed):
    build, followups, symmetric = _random_config(seed)
    states, _, _ = _assert_agree(build, followups, symmetric=symmetric)
    assert states < 500


def _two_writes_config(seed: int):
    """Multi-writer ABD (N=3, f=1) with two writes and a read invoked
    together (ν=2), after a seeded random delivery prefix."""
    rng = random.Random(seed)
    prefix_seed = rng.randrange(1_000)
    prefix_length = rng.randrange(27, 33)

    def build():
        handle = build_abd_system(
            n=3, f=1, value_bits=2, num_writers=2, num_readers=1
        )
        world = handle.world
        world.invoke_write("w000", 1)
        world.invoke_write("w001", 2)
        world.invoke_read("r000")
        prefix = random.Random(prefix_seed)
        for _ in range(prefix_length):
            enabled = world.enabled_channels()
            if not enabled:
                break
            world.deliver(*prefix.choice(enabled))
        return world

    return build


#: Seeds of :func:`_two_writes_config` whose seed-loop search stays
#: under 500 concrete states, each with two operations still pending
#: after the prefix: both writes (66, 89) or a write and the read.
TWO_WRITES_SEEDS = (48, 51, 66, 79, 89)


@pytest.mark.parametrize("seed", TWO_WRITES_SEEDS)
def test_two_concurrent_writes(seed):
    build = _two_writes_config(seed)
    assert len(build().pending_operations()) == 2
    states, _, _ = _assert_agree(build, checker=_atomic, symmetric=True)
    assert states < 500
