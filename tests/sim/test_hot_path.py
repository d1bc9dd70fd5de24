"""Hot-path bookkeeping: channel index, topology caches, pending index.

These guard the incremental structures the fork/step overhaul
introduced: the non-empty-channel index (kept in sync by channel
transition callbacks, even for direct enqueues), the cached
``servers()``/``clients()`` topology views, the incomplete-operation
index behind ``pending_operations()``, and the ``run_until`` and
``deliver_all`` step budgets (both used to permit ``max_steps + 1``
deliveries).
"""

import pytest

from repro.errors import OperationIncompleteError, SimulationError
from repro.registers.abd import build_abd_system
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ClientProcess, ServerProcess


def _rescan(world: World):
    """Ground truth: scan every channel object."""
    return sorted(k for k, ch in world.channels.items() if len(ch) > 0)


class TestChannelIndex:
    def test_index_tracks_enqueue_and_dequeue(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 3)
        assert world.undelivered_channels() == _rescan(world)
        while world.enabled_channels():
            world.step()
            assert world.undelivered_channels() == _rescan(world)
        assert world.undelivered_channels() == []

    def test_index_sees_direct_channel_enqueues(self):
        """Tests enqueue on channel objects directly; the index follows."""
        world = World()
        world.add_process(ServerProcess("s0"))
        world.add_process(ServerProcess("s1"))
        channel = world.channel("s0", "s1")
        assert world.enabled_channels() == []
        channel.enqueue(Message.make("ping"))
        assert world.enabled_channels() == [("s0", "s1")]
        channel.dequeue()
        assert world.enabled_channels() == []

    def test_forked_world_has_independent_index(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 3)
        clone = world.fork()
        clone.deliver_all()
        assert clone.undelivered_channels() == []
        assert world.undelivered_channels() == _rescan(world) != []


class TestTopologyCaches:
    def test_cached_views_match_and_invalidate(self):
        world = World()
        world.add_process(ServerProcess("s0"))
        world.add_process(ClientProcess("c0"))
        assert [p.pid for p in world.servers()] == ["s0"]
        assert [p.pid for p in world.clients()] == ["c0"]
        world.add_process(ServerProcess("s1"))
        assert [p.pid for p in world.servers()] == ["s0", "s1"]

    def test_cached_list_is_a_copy(self):
        world = World()
        world.add_process(ServerProcess("s0"))
        view = world.servers()
        view.clear()
        assert [p.pid for p in world.servers()] == ["s0"]


class TestPendingIndex:
    def test_pending_tracks_completion(self):
        handle = build_abd_system(n=3, f=1, value_bits=4, num_readers=2)
        world = handle.world
        write = world.invoke_write(handle.writer_ids[0], 3)
        read = world.invoke_read(handle.reader_ids[0])
        assert {op.op_id for op in world.pending_operations()} == {0, 1}
        world.run_op_to_completion(write)
        # Fair stepping may have completed the read too; the index must
        # agree with a linear scan either way.
        assert world.pending_operations() == [
            op for op in world.operations if not op.is_complete
        ]
        if not read.is_complete:
            world.run_op_to_completion(read)
        assert world.pending_operations() == []

    def test_pending_matches_linear_scan(self):
        handle = build_abd_system(
            n=3, f=1, value_bits=4, num_writers=2, num_readers=2
        )
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 1)
        world.invoke_read(handle.reader_ids[0])
        for _ in range(10):
            if not world.enabled_channels():
                break
            world.step()
        expected = [op for op in world.operations if not op.is_complete]
        assert world.pending_operations() == expected


class TestRunUntilBudget:
    def test_run_until_executes_at_most_max_steps(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 3)
        before = world.step_count
        with pytest.raises(OperationIncompleteError):
            world.run_until(lambda w: False, max_steps=2)
        assert world.step_count - before == 2

    def test_run_until_zero_budget_takes_no_steps(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 3)
        before = world.step_count
        with pytest.raises(OperationIncompleteError):
            world.run_until(lambda w: False, max_steps=0)
        assert world.step_count == before

    def test_run_until_stops_immediately_when_predicate_holds(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        assert world.run_until(lambda w: True, max_steps=0) == 0


class TestDeliverAllBudget:
    """An ABD n=3 f=1 write drains in 12 deliveries: query, query-ack,
    put and put-ack at each of the three servers."""

    DRAIN = 12

    def _writing_world(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        world = handle.world
        world.invoke_write(handle.writer_ids[0], 3)
        return world

    def test_drain_count(self):
        world = self._writing_world()
        assert world.deliver_all() == self.DRAIN
        assert world.undelivered_channels() == []

    def test_budget_equal_to_drain_count_returns(self):
        world = self._writing_world()
        assert world.deliver_all(max_steps=self.DRAIN) == self.DRAIN
        assert world.undelivered_channels() == []

    def test_budget_one_short_raises_after_exactly_that_many(self):
        world = self._writing_world()
        before = world.step_count
        with pytest.raises(SimulationError, match="exceeded 11 steps"):
            world.deliver_all(max_steps=self.DRAIN - 1)
        assert world.step_count - before == self.DRAIN - 1
        assert world.undelivered_channels() != []

    def test_zero_budget_on_a_drained_world_returns(self):
        world = self._writing_world()
        world.deliver_all()
        assert world.deliver_all(max_steps=0) == 0
