"""Tests for the World step engine, using tiny toy protocols."""

import random

import pytest

from repro.errors import (
    OperationIncompleteError,
    ProcessFailedError,
    SimulationError,
    UnknownProcessError,
)
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ClientProcess, ProcessContext, ServerProcess
from repro.sim.scheduler import ChannelFilter


class EchoServer(ServerProcess):
    """Replies to every 'ping' with a 'pong' carrying the same payload."""

    def __init__(self, pid):
        super().__init__(pid)
        self.pings_seen = 0

    def on_message(self, ctx, src, message):
        if message.kind == "ping":
            self.pings_seen += 1
            ctx.send(src, Message.make("pong", n=message.get("n")))

    def state_digest(self):
        return (self.pings_seen,)


class PingClient(ClientProcess):
    """'Writes' by pinging every server and waiting for all pongs."""

    def __init__(self, pid, server_ids):
        super().__init__(pid)
        self.server_ids = server_ids
        self.pongs = 0

    def start_write(self, ctx, op_id, value):
        self.pongs = 0
        for sid in self.server_ids:
            ctx.send(sid, Message.make("ping", n=value))

    def start_read(self, ctx, op_id):
        raise SimulationError("ping client cannot read")

    def on_message(self, ctx, src, message):
        if message.kind == "pong" and self.pending_op_id is not None:
            self.pongs += 1
            if self.pongs == len(self.server_ids):
                self.finish(ctx)

    def state_digest(self):
        return (self.pongs, self.pending_op_id)


def make_world(num_servers=3):
    w = World()
    servers = [w.add_process(EchoServer(f"s{i}")) for i in range(num_servers)]
    client = w.add_process(PingClient("c0", tuple(s.pid for s in servers)))
    return w, servers, client


class TestTopology:
    def test_duplicate_pid_rejected(self):
        w = World()
        w.add_process(EchoServer("s0"))
        with pytest.raises(SimulationError):
            w.add_process(EchoServer("s0"))

    def test_unknown_process(self):
        w = World()
        with pytest.raises(UnknownProcessError):
            w.process("ghost")

    def test_unknown_channel_endpoint(self):
        w = World()
        w.add_process(EchoServer("s0"))
        with pytest.raises(UnknownProcessError):
            w.channel("s0", "ghost")

    def test_servers_and_clients_listing(self):
        w, servers, client = make_world()
        assert [s.pid for s in w.servers()] == ["s0", "s1", "s2"]
        assert [c.pid for c in w.clients()] == ["c0"]


class TestStepping:
    def test_operation_runs_to_completion(self):
        w, servers, client = make_world()
        op = w.invoke_write("c0", 5)
        w.run_op_to_completion(op)
        assert op.is_complete
        assert all(s.pings_seen == 1 for s in servers)

    def test_step_returns_none_when_quiescent(self):
        w, _, _ = make_world()
        assert w.step() is None

    def test_trace_records_actions(self):
        w, _, _ = make_world()
        op = w.invoke_write("c0", 5)
        w.run_op_to_completion(op)
        kinds = {a.kind for a in w.trace}
        assert kinds == {"invoke", "deliver"}
        # 3 pings + 3 pongs + 1 invoke
        assert len(w.trace) == 7

    def test_points_advance_one_per_action(self):
        w, _, _ = make_world()
        op = w.invoke_write("c0", 5)
        before = w.step_count
        w.step()
        assert w.step_count == before + 1

    def test_filter_blocks_channels(self):
        w, servers, _ = make_world()
        w.invoke_write("c0", 5)
        freeze = ChannelFilter.freeze_process("c0")
        # all enabled channels touch the client, so nothing can step
        assert w.step(freeze) is None

    def test_run_until_quiesce_raises(self):
        w, _, _ = make_world()
        with pytest.raises(OperationIncompleteError):
            w.run_until(lambda world: False, max_steps=10)

    def test_run_until_max_steps(self):
        w, _, _ = make_world()
        w.invoke_write("c0", 5)
        with pytest.raises(OperationIncompleteError):
            w.run_until(lambda world: False, max_steps=2)

    def test_deliver_all_drains(self):
        w, servers, _ = make_world()
        w.invoke_write("c0", 5)
        delivered = w.deliver_all()
        assert delivered == 6  # 3 pings then 3 pongs
        assert not w.enabled_channels()

    def test_deliver_empty_channel_rejected(self):
        w, _, _ = make_world()
        w.channel("s0", "s1")  # create empty
        with pytest.raises(SimulationError):
            w.deliver("s0", "s1")


class TestChannelIndex:
    """The non-empty index is a set; every view that has an order sorts."""

    @staticmethod
    def flooded():
        """Six servers and one message on each of their 30 channels,
        sent in shuffled order."""
        w = World()
        pids = [f"p{i}" for i in range(6)]
        for pid in pids:
            w.add_process(EchoServer(pid))
        keys = [(s, d) for s in pids for d in pids if s != d]
        random.Random(3).shuffle(keys)
        for key in keys:
            w.channel(*key).enqueue(Message.make("m"))
        return w, keys

    def test_sorted_views_are_sorted(self):
        w, keys = self.flooded()
        assert w.undelivered_channels() == sorted(keys)
        assert w.enabled_channels() == sorted(keys)
        hold = ChannelFilter.freeze_process("p0")
        assert w.enabled_channels(hold) == sorted(k for k in keys if "p0" not in k)

    def test_unordered_views_read_the_index_in_place(self):
        w, keys = self.flooded()
        index = w.undelivered_keys()
        assert w.enabled_keys() is index and index == set(keys)
        w.deliver(*keys[0])
        assert keys[0] not in index and len(index) == len(keys) - 1

    def test_deliver_all_takes_the_smallest_key_first(self):
        w, keys = self.flooded()
        assert w.deliver_all() == len(keys)
        assert [(a.src, a.dst) for a in w.trace] == sorted(keys)


class TestCrash:
    def test_crashed_server_drops_messages(self):
        w, servers, client = make_world()
        w.crash("s0")
        op = w.invoke_write("c0", 5)
        # client never completes: only 2 of 3 pongs arrive
        with pytest.raises(OperationIncompleteError):
            w.run_op_to_completion(op, max_steps=100)
        assert servers[0].pings_seen == 0
        drops = [a for a in w.trace if a.kind == "drop"]
        assert len(drops) == 1

    def test_crashed_client_cannot_invoke(self):
        w, _, _ = make_world()
        w.crash("c0")
        with pytest.raises(ProcessFailedError):
            w.invoke_write("c0", 5)

    def test_crashed_process_cannot_send(self):
        w, _, _ = make_world()
        w.crash("s0")
        with pytest.raises(ProcessFailedError):
            w.enqueue_message("s0", "c0", Message.make("pong"))

    def test_in_flight_messages_from_crashed_still_deliver(self):
        w, servers, client = make_world()
        w.invoke_write("c0", 5)
        w.deliver("c0", "s0")  # s0 replies: pong in flight
        w.crash("s0")
        w.deliver("s0", "c0")  # pong still deliverable
        assert client.pongs == 1


class TestOperations:
    def test_two_invocations_same_client_rejected(self):
        w, _, _ = make_world()
        w.invoke_write("c0", 1)
        with pytest.raises(SimulationError):
            w.invoke_write("c0", 2)

    def test_sequential_ops_allowed(self):
        w, _, _ = make_world()
        op1 = w.invoke_write("c0", 1)
        w.run_op_to_completion(op1)
        op2 = w.invoke_write("c0", 2)
        w.run_op_to_completion(op2)
        assert op1.op_id != op2.op_id

    def test_invoke_on_server_rejected(self):
        w, _, _ = make_world()
        with pytest.raises(SimulationError):
            w.invoke_write("s0", 1)

    def test_pending_operations(self):
        w, _, _ = make_world()
        op = w.invoke_write("c0", 1)
        assert w.pending_operations() == [op]
        w.run_op_to_completion(op)
        assert w.pending_operations() == []

    def test_double_completion_rejected(self):
        w, _, _ = make_world()
        op = w.invoke_write("c0", 1)
        w.run_op_to_completion(op)
        with pytest.raises(SimulationError):
            w.complete_operation("c0", op.op_id, None)


class TestStateVector:
    def test_server_state_vector_all(self):
        w, servers, _ = make_world()
        vec = w.server_state_vector()
        assert vec == ((0,), (0,), (0,))

    def test_server_state_vector_subset(self):
        w, servers, _ = make_world()
        servers[1].pings_seen = 5
        vec = w.server_state_vector(["s1", "s2"])
        assert vec == ((5,), (0,))
