"""Property test: ``World.fork`` is observationally identical to deepcopy.

For seeded random topologies (algorithm, size, adversary, fault
schedule) driven to a random mid-execution point, the structural fork
and the ``copy.deepcopy`` reference fork are *twins*: the same digest
at the fork point, the same enabled channels, and — fed the identical
delivery sequence, including adversary fault decisions drawn from the
cloned RNG stream — the same digest and trace after every step.  The
parent is never disturbed by either twin.

``fork`` is copy-on-write: twins share process and channel objects
until one of them writes.  So the parent, its fork, a fork of the fork
and the deepcopy oracle are also stepped in interleaved order, and
every write accessor (``process``, ``channel``, ``crash``, ``recover``,
``servers``/``clients``) is checked to stay invisible to the twin.
"""

import copy
import gc
import random
import weakref

import pytest

from repro.faults.adversary import AdversaryConfig, ChannelAdversary, Partition
from repro.registers.abd import build_abd_system
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.registers.cas import build_cas_system
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ServerProcess
from repro.sim.scheduler import RandomScheduler, RoundRobinScheduler
from repro.sim.snapshot import composite_digest, world_digest


def _random_world(seed: int):
    """A seeded random system at a random mid-execution point."""
    rng = random.Random(seed)
    kind = rng.choice(["abd", "swmr", "cas"])
    if kind == "abd":
        handle = build_abd_system(
            n=rng.choice([3, 5]), f=1, value_bits=4,
            num_writers=2, num_readers=2,
        )
    elif kind == "swmr":
        handle = build_swmr_abd_system(
            n=rng.choice([3, 4]), f=1, value_bits=4, num_readers=2
        )
    else:
        handle = build_cas_system(n=5, f=1, value_bits=12)
    world = handle.world

    if rng.random() < 0.5:
        world.adversary = ChannelAdversary(
            AdversaryConfig(
                duplicate_probability=0.2,
                reorder_probability=0.3,
                max_duplicates=8,
            ),
            seed=seed,
        )

    # Random fault schedule + operation mix, then a few random steps.
    world.invoke_write(handle.writer_ids[0], rng.randrange(8))
    world.invoke_read(handle.reader_ids[0])
    servers = [p.pid for p in world.servers()]
    if rng.random() < 0.4:
        world.crash(rng.choice(servers))
    if world.adversary is not None and rng.random() < 0.4:
        world.adversary.start_partition(
            Partition.isolate([rng.choice(servers)])
        )
    for _ in range(rng.randrange(12)):
        if not world.enabled_channels():
            break
        world.step()
    return world


@pytest.mark.parametrize("seed", range(16))
def test_fast_fork_twins_deepcopy_fork(seed):
    world = _random_world(seed)
    parent_digest = world_digest(world)
    fast = world.fork()
    slow = copy.deepcopy(world)
    assert world_digest(fast) == world_digest(slow) == parent_digest

    rng = random.Random(seed * 977 + 1)
    for _ in range(40):
        enabled = fast.enabled_channels()
        assert enabled == slow.enabled_channels()
        if not enabled:
            break
        key = rng.choice(enabled)
        action_fast = fast.deliver(*key)
        action_slow = slow.deliver(*key)
        assert (action_fast.kind, action_fast.src, action_fast.dst) == (
            action_slow.kind,
            action_slow.src,
            action_slow.dst,
        )
        assert world_digest(fast) == world_digest(slow)

    assert [
        (a.step, a.kind, a.src, a.dst, a.info) for a in fast.trace
    ] == [(a.step, a.kind, a.src, a.dst, a.info) for a in slow.trace]
    assert [
        (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
        for op in fast.operations
    ] == [
        (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
        for op in slow.operations
    ]
    # Neither twin disturbed the parent.
    assert world_digest(world) == parent_digest


@pytest.mark.parametrize("seed", [3, 7])
def test_forked_twins_diverge_independently(seed):
    """Steps taken in one twin are invisible to the other."""
    world = _random_world(seed)
    fast = world.fork()
    slow = copy.deepcopy(world)
    enabled = fast.enabled_channels()
    if not enabled:
        pytest.skip("random point quiesced")
    fast.deliver(*enabled[0])
    assert world_digest(fast) != world_digest(slow) or fast.step_count != slow.step_count
    assert slow.enabled_channels() == world.enabled_channels()


def test_fork_preserves_pending_operation_identity():
    """Forked pending-op records are the fork's own (satellite: index)."""
    handle = build_abd_system(n=3, f=1, value_bits=4)
    world = handle.world
    world.invoke_write(handle.writer_ids[0], 5)
    clone = world.fork()
    pending = clone.pending_operations()
    assert [op.op_id for op in pending] == [0]
    assert pending[0] is clone.operations[0]
    assert pending[0] is not world.operations[0]
    # Completing in the clone does not complete in the parent.
    clone.deliver_all()
    assert clone.pending_operations() == []
    assert [op.op_id for op in world.pending_operations()] == [0]
    # A completed record is shared: nothing writes it again.
    world.deliver_all()
    assert world.fork().operations[0] is world.operations[0]


def _step_interleaved(worlds, rng, rounds=40):
    """Apply one random action to every World per round, in a random
    order, checking after each single step that the Worlds not yet
    stepped this round are untouched, and after each round that all
    agree.  Actions are deliveries plus occasional crashes and
    recoveries of servers."""
    reference = worlds[-1]
    for _ in range(rounds):
        enabled = reference.enabled_channels()
        for world in worlds:
            assert world.enabled_channels() == enabled
        servers = [
            pid for pid, process in reference.processes.items()
            if isinstance(process, ServerProcess)
        ]
        crashed = [pid for pid in servers if reference.processes[pid].failed]
        roll = rng.random()
        if crashed and roll < 0.1:
            action = ("recover", rng.choice(crashed))
        elif not crashed and roll < 0.2:
            action = ("crash", rng.choice(servers))
        elif enabled:
            action = ("deliver", rng.choice(enabled))
        else:
            break
        before = world_digest(reference)
        order = list(worlds)
        rng.shuffle(order)
        for done, world in enumerate(order):
            kind, arg = action
            if kind == "deliver":
                world.deliver(*arg)
            else:
                getattr(world, kind)(arg)
            for untouched in order[done + 1:]:
                assert world_digest(untouched) == before
        after = world_digest(reference)
        for world in worlds:
            assert world_digest(world) == after
    for world in worlds:
        assert [
            (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
            for op in world.operations
        ] == [
            (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
            for op in reference.operations
        ]


@pytest.mark.parametrize("seed", range(16))
def test_parent_fork_and_oracle_step_interleaved(seed):
    """The parent keeps stepping too (as the explorer's last child
    does); all three stay equal after every step."""
    world = _random_world(seed)
    fork = world.fork()
    oracle = copy.deepcopy(world)
    _step_interleaved([world, fork, oracle], random.Random(seed * 31 + 7))


@pytest.mark.parametrize("seed", range(16))
def test_fork_of_a_fork_steps_interleaved(seed):
    world = _random_world(seed)
    oracle = copy.deepcopy(world)
    child = world.fork()
    rng = random.Random(seed * 53 + 11)
    # Diverge the child from its parent before forking it again, so
    # the grandchild shares some objects with both and some with one.
    for _ in range(rng.randrange(4)):
        enabled = child.enabled_channels()
        if not enabled:
            break
        key = rng.choice(enabled)
        for twin in (world, child, oracle):
            twin.deliver(*key)
    grandchild = child.fork()
    _step_interleaved([world, child, grandchild, oracle], rng)


def _abd_mid_write():
    handle = build_abd_system(n=3, f=1, value_bits=4)
    world = handle.world
    world.invoke_write(handle.writer_ids[0], 5)
    world.step()
    return handle, world


def _write_process(world, pid):
    world.process(pid).value = 9


def _write_channel(world, pid):
    world.channel(pid, "w000").enqueue(Message.make("get", ref=("x", 1)))


def _crash(world, pid):
    world.crash(pid)


def _recover(world, pid):
    world.recover(pid)


#: write -> (set-up applied before the fork, the write itself).
WRITES = {
    "process": (None, _write_process),
    "channel": (None, _write_channel),
    "crash": (None, _crash),
    "recover": (_crash, _recover),
}


@pytest.mark.parametrize("write", sorted(WRITES))
@pytest.mark.parametrize("writer", ["fork", "parent"])
def test_writes_are_invisible_to_the_twin(write, writer):
    handle, world = _abd_mid_write()
    pid = handle.server_ids[1]
    setup, apply = WRITES[write]
    if setup is not None:
        setup(world, pid)
    fork = world.fork()
    oracle = copy.deepcopy(world)
    before = world_digest(world)
    assert world_digest(fork) == before
    target, twin = (fork, world) if writer == "fork" else (world, fork)
    apply(target, pid)
    assert world_digest(target) != before
    assert world_digest(twin) == before
    # The twin continues exactly as a deep copy of the fork point.
    steps = 0
    while twin.step() is not None:
        oracle.step()
        steps += 1
        assert world_digest(twin) == world_digest(oracle)
    assert steps and oracle.step() is None


def test_servers_and_clients_are_the_worlds_own():
    handle, world = _abd_mid_write()
    fork = world.fork()
    for twin, other in ((fork, world), (world, fork)):
        for process in twin.servers() + twin.clients():
            assert process is twin.process(process.pid)
            assert process is twin.processes[process.pid]
            assert process is not other.processes[process.pid]
    before = world_digest(world)
    fork.servers()[0].value = 9
    assert world_digest(world) == before
    assert world_digest(fork) != before


def test_mutation_after_a_cached_digest_is_seen():
    """A digest memo must never serve a process that can still change."""
    handle, world = _abd_mid_write()
    pid = handle.server_ids[0]
    fork = world.fork()
    world_digest(fork)  # every process is shared: memoised
    parent_before = world_digest(world)
    fork_before = world_digest(fork)
    server = fork.process(pid)  # now the fork's own
    server.value = 9
    fork_after = world_digest(fork)
    assert fork_after != fork_before
    server.value = 11  # the owned process changes again, in place
    assert world_digest(fork) not in (fork_before, fork_after)
    assert world_digest(world) == parent_before
    assert composite_digest(world, (pid,)) == composite_digest(fork, (pid,))


def test_mutation_of_a_never_forked_world_is_seen():
    handle = build_abd_system(n=3, f=1, value_bits=4)
    world = handle.world
    server = world.process(handle.server_ids[0])
    first = world_digest(world)
    world_digest(world)
    server.value = 9
    assert world_digest(world) != first


def test_channel_mutation_after_a_cached_digest_is_seen():
    """The digest memo must never serve a channel that can still change."""
    handle, world = _abd_mid_write()
    key = world.enabled_channels()[0]
    fork = world.fork()
    world_digest(fork)  # every channel is shared: memoised
    parent_before = world_digest(world)
    fork_before = world_digest(fork)
    channel = fork.channel(*key)  # now the fork's own
    channel.enqueue(Message.make("get", ref=("x", 1)))
    fork_after = world_digest(fork)
    assert fork_after != fork_before
    channel.dequeue()  # the owned channel changes again, in place
    assert world_digest(fork) not in (fork_before, fork_after)
    assert world_digest(world) == parent_before


def _reference_digest(world):
    """``world_digest`` computed afresh from every object: no memo, no
    intern table, no channel index."""
    processes = tuple(
        (pid, process.failed, process.state_digest())
        for pid, process in sorted(world.processes.items())
    )
    channels = tuple(
        (key, channel.state_digest())
        for key, channel in sorted(world.channels.items())
        if len(channel)
    )
    return (world.step_count, processes, channels)


@pytest.mark.parametrize("seed", range(8))
def test_interned_ids_of_fast_and_deepcopy_forks_agree(seed):
    """A fast fork shares its parent's intern table, a deep copy starts
    its own; fed the same deliveries, both hand out the same ids, and
    the digests read back through them are the digests of the objects."""
    world = _random_world(seed)
    fast = world.fork()
    slow = copy.deepcopy(world)
    assert slow._interned is not fast._interned is world._interned
    rng = random.Random(seed * 13 + 5)
    for _ in range(30):
        assert fast.config_ids() == slow.config_ids()
        assert all(type(ident) is int for ident in fast.config_ids())
        assert world_digest(fast) == world_digest(slow) == _reference_digest(fast)
        enabled = fast.enabled_channels()
        if not enabled:
            break
        key = rng.choice(enabled)
        fast.deliver(*key)
        slow.deliver(*key)
    assert world_digest(world) == _reference_digest(world)


@pytest.mark.parametrize("scheduler_cls", [RoundRobinScheduler, RandomScheduler])
def test_scheduler_is_copied_on_first_step(scheduler_cls, monkeypatch):
    """Twins share the scheduler until one steps.  With the parent
    stepping first, the parent and its fork still step exactly like
    deep copies taken at the fork point; a fork that never steps (the
    explorer's) clones no scheduler."""
    clones = []
    clone = scheduler_cls.clone

    def counted(self):
        clones.append(self)
        return clone(self)

    monkeypatch.setattr(scheduler_cls, "clone", counted)
    handle = build_abd_system(
        n=3, f=1, value_bits=4, num_writers=2, num_readers=1,
        world=World(scheduler_cls()),
    )
    world = handle.world
    world.invoke_write("w000", 3)
    world.invoke_write("w001", 5)
    world.invoke_read("r000")
    for _ in range(4):
        world.step()
    fork = world.fork()
    oracle_parent = copy.deepcopy(world)
    oracle_fork = copy.deepcopy(world)
    assert fork.scheduler is world.scheduler
    for _ in range(3):
        fork.fork().deliver(*fork.enabled_channels()[0])
    assert clones == []  # forks and deliveries alone clone nothing
    for twin, oracle in ((world, oracle_parent), (fork, oracle_fork)):
        while True:
            action, expected = twin.step(), oracle.step()
            if action is None:
                assert expected is None
                break
            assert (action.kind, action.src, action.dst) == (
                expected.kind, expected.src, expected.dst
            )
            assert world_digest(twin) == world_digest(oracle)
    assert world.scheduler is not fork.scheduler
    # One clone per World at its first step: the twins, and the deep
    # copies, taken of a World that no longer owned its scheduler.
    assert len(clones) == 4


def test_a_dropped_fork_is_freed_without_the_collector():
    handle, world = _abd_mid_write()
    enabled = gc.isenabled()
    gc.disable()
    try:
        fork = world.fork()
        fork.step()
        fork.step()
        alive = weakref.ref(fork)
        del fork
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
