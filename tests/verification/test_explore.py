"""Tests for the exhaustive schedule explorer."""

import pickle

import pytest

from repro.consistency.atomicity import check_atomicity
from repro.consistency.regularity import check_regular
from repro.errors import SimulationError
from repro.faults.adversary import AdversaryConfig, ChannelAdversary
from repro.registers.abd import ABDReadClient, build_abd_system
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.registers.coded_swmr import build_coded_swmr_system
from repro.sim.snapshot import world_digest
from repro.verification.explore import (
    ScheduleExplorer,
    _relabel,
    _ServerSymmetry,
    _state_key,
    explore_all_schedules,
)


def swmr_write_read_world():
    """One write concurrent with one read, from the initial state."""
    h = build_swmr_abd_system(n=3, f=1, value_bits=2, num_readers=1)
    w = h.world
    w.invoke_write(h.writer_ids[0], 1)
    w.invoke_read(h.reader_ids[0])
    return w


def inversion_prefix_world():
    """write(1) done; write(2) has landed at one server; read1 invoked.

    The readers skip the write-back phase (regular, not atomic), so a
    follow-up read can return an older value than read1 did."""
    h = build_swmr_abd_system(
        n=3, f=1, value_bits=2, num_readers=2, read_write_back=False
    )
    w = h.world
    h.write(1)
    w.deliver_all()
    w.invoke_write(h.writer_ids[0], 2)
    w.deliver(h.writer_ids[0], "s000")
    w.invoke_read(h.reader_ids[0])
    return w


INVERSION_FOLLOWUPS = [(2, lambda world: world.invoke_read("r001"))]


class TestExhaustivePositive:
    def test_swmr_write_read_atomic_and_regular_under_all_schedules(self):
        """Every interleaving of a write and a concurrent read is both
        atomic and regular (a single read cannot witness an inversion).

        This is exhaustive: the complete interleaving space of the
        configuration, 455 states up to the clock and a relabelling of
        the servers (2,243 without the relabelling) and 4 distinct
        terminal states (18).
        """
        result = explore_all_schedules(
            swmr_write_read_world,
            checker=lambda ops: check_atomicity(ops).ok
            and check_regular(ops).ok,
            max_states=50_000,
        )
        assert result.exhausted
        assert result.ok
        assert result.states_visited == 455
        assert result.executions_checked == 4
        assert result.symmetry_order == 6
        assert result.incomplete_terminals == 0


def _deliver(world, *channels):
    for channel in channels:
        world.deliver(*channel)
    return world


def one_reply_each_world():
    """write(1) and read 1 each wait for their last reply (s001's);
    s002 has crashed and dropped its messages."""
    h = build_swmr_abd_system(n=3, f=1, value_bits=2, num_readers=2)
    w = h.world
    w.invoke_write("w000", 1)
    w.invoke_read("r000")
    w.crash("s002")
    return _deliver(
        w,
        ("w000", "s000"), ("w000", "s001"), ("s000", "w000"),
        ("r000", "s000"), ("r000", "s001"), ("s000", "r000"),
        ("w000", "s002"), ("r000", "s002"),
    )


class TestStateKey:
    def test_one_configuration_at_different_steps_has_one_key(self):
        """A crash and recovery of an idle server adds two steps, and
        interleaving read 1's replies with the write's acks moves the
        write's response step; once the stale ack and reply are
        consumed, the configuration is the same."""
        h = build_swmr_abd_system(n=3, f=1, value_bits=2, num_readers=1)
        early = h.world.fork()
        late = h.world.fork()
        late.crash("s002")
        late.recover("s002")
        for world in (early, late):
            world.invoke_write("w000", 1)
            world.invoke_read("r000")
            _deliver(
                world,
                ("w000", "s000"), ("w000", "s001"), ("w000", "s002"),
                ("r000", "s000"), ("r000", "s001"), ("r000", "s002"),
            )
        _deliver(
            early,
            ("s000", "w000"), ("s001", "w000"), ("s002", "w000"),
            ("s000", "r000"), ("s001", "r000"), ("s002", "r000"),
        )
        _deliver(
            late,
            ("s000", "r000"), ("s000", "w000"), ("s001", "r000"),
            ("s001", "w000"), ("s002", "r000"), ("s002", "w000"),
        )
        assert early.step_count != late.step_count
        assert [op.response_step for op in early.operations] != [
            op.response_step for op in late.operations
        ]
        assert world_digest(early) != world_digest(late)
        assert _state_key(early) == _state_key(late)

    def test_completion_before_or_after_a_followup_has_two_keys(self):
        """Read 1 completes before, or after, the follow-up read that
        the write's completion invokes: one configuration, two
        histories (read 1 precedes read 2, or overlaps it).  Both are
        forks of one root, so their interned ids share one table and
        equal configuration parts mean equal configurations."""
        root = one_reply_each_world()
        before = _deliver(root.fork(), ("s001", "r000"), ("s001", "w000"))
        before.invoke_read("r001")
        after = _deliver(root.fork(), ("s001", "w000"))
        after.invoke_read("r001")
        _deliver(after, ("s001", "r000"))
        assert before.step_count == after.step_count
        assert before.process_digests() == after.process_digests()
        assert before.channel_digests() == after.channel_digests()
        assert before.config_ids() == after.config_ids()
        before_key, after_key = _state_key(before), _state_key(after)
        assert before_key[0] == after_key[0]
        assert before_key != after_key


class _NamingReader(ABDReadClient):
    """An ABD reader that does not declare opaque server ids."""

    opaque_server_ids = False


class TestServerSymmetry:
    def test_mirrored_configurations_share_a_key(self):
        """The write's first message delivered to s000, or to s001:
        two configurations, one up to swapping the two servers."""
        root = swmr_write_read_world()
        symmetry = _ServerSymmetry.of(root)
        assert len(symmetry.mappings) == 6
        left = _deliver(root.fork(), ("w000", "s000"))
        right = _deliver(root.fork(), ("w000", "s001"))
        assert _state_key(left) != _state_key(right)
        assert _state_key(left, symmetry=symmetry) == _state_key(
            right, symmetry=symmetry
        )
        # Delivering to s000 twice is no relabelling of either.
        both = _deliver(left.fork(), ("r000", "s000"))
        apart = _deliver(right.fork(), ("r000", "s000"))
        assert _state_key(both, symmetry=symmetry) != _state_key(
            apart, symmetry=symmetry
        )

    def test_only_declared_reliable_worlds_are_reduced(self):
        coded = build_coded_swmr_system(n=3, f=1, value_bits=2).world
        adversarial = swmr_write_read_world()
        adversarial.adversary = ChannelAdversary(AdversaryConfig(), seed=0)
        naming = build_swmr_abd_system(n=3, f=1, value_bits=2).world
        naming.add_process(_NamingReader("r009", ("s000", "s001", "s002"), 2))
        for world in (coded, adversarial, naming):
            assert _ServerSymmetry.of(world) is None
            assert ScheduleExplorer().explore(world).symmetry_order == 1
        assert _ServerSymmetry.of(swmr_write_read_world()) is not None

    def test_relabel_maps_tuples_and_frozensets_only(self):
        mapping = {"s000": "s001", "s001": "s000"}
        entry = ("w000", False, (1, frozenset({"s000", "s002"}), (1, "w000")))
        assert _relabel(entry, mapping) == (
            "w000", False, (1, frozenset({"s001", "s002"}), (1, "w000"))
        )
        for value in (["s000"], {"s000": 1}, {"s000"}):
            with pytest.raises(SimulationError):
                _relabel(("w000", value), mapping)


def _explore_outcome(world):
    """States, terminals, exhaustion and every reported history."""
    result = ScheduleExplorer(checker=lambda ops: False).explore(world)
    return (
        result.states_visited,
        result.executions_checked,
        result.exhausted,
        [
            (path, [
                (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
                for op in ops
            ])
            for path, ops in result.violations
        ],
    )


class TestInternTableLifetime:
    def test_reused_or_fresh_tables_explore_alike(self):
        """The intern table lives as long as the digest memo: a World
        and its forks share it, a pickled copy starts its own.
        Exploring one World twice, a fork of it or a pickled copy gives
        identical results, and a second pass interns nothing new."""
        world = swmr_write_read_world()
        first = _explore_outcome(world)
        assert first[:3] == (455, 4, True) and len(first[3]) == 4
        table = len(world._interned)
        assert _explore_outcome(world) == first
        assert len(world._interned) == table
        fork = world.fork()
        assert fork._interned is world._interned
        assert _explore_outcome(fork) == first
        copied = pickle.loads(pickle.dumps(world))
        assert len(copied._interned) == 0 and not copied._digest_memo
        assert _explore_outcome(copied) == first
        assert len(copied._interned) == table


class TestCounterexampleHunt:
    def test_inversion_found_mechanically(self):
        explorer = ScheduleExplorer(
            checker=lambda ops: check_atomicity(ops).ok,
            followups=INVERSION_FOLLOWUPS,
            stop_at_first_violation=True,
            max_states=200_000,
        )
        result = explorer.explore(inversion_prefix_world())
        assert result.violations
        assert not result.exhausted  # the search stopped at the violation
        path, ops = result.violations[0]
        reads = [op for op in ops if op.kind == "read"]
        assert [r.value for r in reads] == [2, 1]  # new then old

    def test_counterexample_replays(self):
        explorer = ScheduleExplorer(
            checker=lambda ops: check_atomicity(ops).ok,
            followups=INVERSION_FOLLOWUPS,
            stop_at_first_violation=True,
            max_states=200_000,
        )
        result = explorer.explore(inversion_prefix_world())
        path, ops = result.violations[0]

        # The explorer's replay fires the follow-up read as explore did.
        replayed = explorer.replay(inversion_prefix_world, path)
        replay_reads = [
            op for op in replayed.operations if op.kind == "read"
        ]
        assert [r.value for r in replay_reads] == [2, 1]
        assert not check_atomicity(replayed.operations).ok
        assert [
            (op.op_id, op.kind, op.value, op.is_complete)
            for op in replayed.operations
        ] == [(op.op_id, op.kind, op.value, op.is_complete) for op in ops]

    def test_every_terminal_schedule_replays(self):
        """Without follow-ups, a default ``ScheduleExplorer().replay``
        rebuilds each terminal state the explorer reported."""
        explorer = ScheduleExplorer(checker=lambda ops: False)
        result = explorer.explore(swmr_write_read_world())
        assert result.exhausted and len(result.violations) == 4
        for path, ops in result.violations:
            replayed = ScheduleExplorer().replay(swmr_write_read_world, path)
            assert not replayed.enabled_channels()
            assert [
                (op.kind, op.value, op.is_complete) for op in replayed.operations
            ] == [(op.kind, op.value, op.is_complete) for op in ops]


class TestBudgets:
    def test_max_states_marks_not_exhausted(self):
        result = explore_all_schedules(swmr_write_read_world, max_states=50)
        assert not result.exhausted

    def test_incomplete_terminals_counted(self):
        """With 2 of 3 servers crashed, the write can never complete."""

        def stuck_world():
            h = build_abd_system(n=3, f=1, value_bits=2)
            w = h.world
            w.crash("s001")
            w.crash("s002")
            w.invoke_write(h.writer_ids[0], 1)
            return w

        result = explore_all_schedules(
            stuck_world, checker=lambda ops: True, max_states=10_000
        )
        assert result.exhausted
        assert result.incomplete_terminals == result.executions_checked > 0


class TestFollowups:
    def test_followup_fires_after_trigger(self):
        fired_worlds = []

        def follow(world):
            fired_worlds.append(world.step_count)
            world.invoke_read("r000")

        def one_write():
            h = build_swmr_abd_system(n=3, f=1, value_bits=2)
            h.world.invoke_write(h.writer_ids[0], 1)
            return h.world

        explorer = ScheduleExplorer(
            checker=lambda ops: check_regular(ops).ok,
            followups=[(0, follow)],
            max_states=100_000,
        )
        result = explorer.explore(one_write())
        assert result.exhausted and result.ok
        assert fired_worlds  # the read really ran in explored branches
        # terminal executions contain both operations, completed
        assert result.incomplete_terminals == 0
