"""Differential oracle for the observer's incremental sampling.

``SimObserver`` keeps a running in-flight total and re-reads a server's
``storage_bits`` only when its state can have changed.  The full
rescan it replaced is kept here as the reference: after every action,
the sampled ``sim.messages_in_flight``, ``storage.total_bits`` and
``storage.max_server_bits`` must equal (in value and type) what the
rescan computes at the same point.  Covered: the ten-shape fault grid
plus the Byzantine band for ABD/CAS/CASGC, a mid-run ``World.fork()``,
one observer reused on a fresh World, a pickled World, and toy
processes whose storage changes at each point the observer marks.
"""

import collections
import gc
import pickle
import random
import weakref

import pytest

from repro.faults.adversary import AdversaryConfig, ChannelAdversary, Partition
from repro.faults.campaign import generate_fault_configs, run_chaos_workload
from repro.obs.recorder import SimObserver
from repro.obs.tracing import TRACE_TAIL_EVENTS, TraceCollector
from repro.registers.cas import build_cas_system
from repro.registers.catalog import MULTI_WRITER, build_client_system
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ClientProcess, ServerProcess
from repro.workload.generator import run_random_workload

SAMPLED = ("sim.messages_in_flight", "storage.total_bits", "storage.max_server_bits")


def _rescan(world):
    """The per-action full rescan the observer used to run."""
    in_flight = sum(len(ch) for ch in world.channels.values())
    total_bits = 0
    max_bits = 0
    for proc in world.processes.values():
        storage = getattr(proc, "storage_bits", None)
        if storage is None:
            continue
        bits = storage() if callable(storage) else storage
        total_bits += bits
        if bits > max_bits:
            max_bits = bits
    return in_flight, total_bits, max_bits


class CheckedObserver(SimObserver):
    """A SimObserver that checks each sample against the rescan."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.checked = 0
        self.kinds = collections.Counter()
        self.mismatches = []

    def on_action(self, world, record):
        super().on_action(world, record)
        got = tuple(self.registry.gauges[name].value for name in SAMPLED)
        want = _rescan(world)
        self.checked += 1
        self.kinds[record.kind] += 1
        if [(type(v), v) for v in got] != [(type(v), v) for v in want]:
            self.mismatches.append((record, got, want))


# -- the campaign grid ------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("algorithm", sorted(MULTI_WRITER))
def test_grid_and_byzantine_band_match_rescan(algorithm, seed):
    configs = generate_fault_configs(1, [seed], byzantine=1)
    assert len(configs) > 10  # the ten shapes plus the Byzantine band
    kinds = collections.Counter()
    checked = 0
    for config in configs:
        handle = build_client_system(
            algorithm, 5, 1, 6,
            byzantine_budget=config.resolved_byzantine_budget(),
        )
        observer = CheckedObserver(
            tracer=TraceCollector(max_events=TRACE_TAIL_EVENTS)
        )
        handle.world.obs = observer
        run_chaos_workload(handle, config, num_ops=10)
        assert observer.mismatches == [], (config.label(), observer.mismatches[:3])
        checked += observer.checked
        kinds.update(observer.kinds)
    assert checked > 1000
    # Every action kind that moves a message or a server was sampled.
    assert {"deliver", "invoke", "crash", "recover", "lose", "drop"} <= set(kinds)


# -- forks, reuse, toy processes ----------------------------------------------


def _drive(world, handle, rng, ticks):
    """Seeded random invocations, deliveries, crashes, recoveries,
    partitions and heals."""
    clients = list(handle.writer_ids) + list(handle.reader_ids)
    target = handle.server_ids[-1]
    isolate = Partition.isolate([handle.reader_ids[0], target])
    for _ in range(ticks):
        roll = rng.random()
        if roll < 0.03:
            if world.process(target).failed:
                world.recover(target)
            else:
                world.crash(target)
        elif roll < 0.05:
            if world.adversary.partition is None:
                world.adversary.start_partition(isolate)
            else:
                world.adversary.heal_partition()
        elif roll < 0.2:
            idle = [p for p in clients if world.process(p).pending_op_id is None]
            if idle:
                pid = rng.choice(idle)
                if pid in handle.writer_ids:
                    world.invoke_write(pid, rng.randrange(handle.value_space_size))
                else:
                    world.invoke_read(pid)
        else:
            world.step()


def _faulty_world(algorithm, seed):
    handle = build_client_system(algorithm, 5, 1, 6)
    handle.world.adversary = ChannelAdversary(
        AdversaryConfig(
            drop_probability=0.1,
            duplicate_probability=0.1,
            reorder_probability=0.3,
            lossy_processes=frozenset({handle.server_ids[-1]}),
        ),
        seed=seed,
    )
    handle.world.obs = CheckedObserver(tracer=TraceCollector())
    return handle


def _step_counts(world):
    """``sim.steps`` and ``sim.actions.deliver`` in ``world``'s registry."""
    counters = world.obs.registry.counters
    return counters["sim.steps"].value, counters["sim.actions.deliver"].value


def _actual_step_counts(world):
    """The same two counts, from the World and the checked actions."""
    return world.step_count, world.obs.kinds["deliver"]


@pytest.mark.parametrize("algorithm", sorted(MULTI_WRITER))
def test_fork_mid_run_keeps_both_twins_exact(algorithm):
    handle = _faulty_world(algorithm, seed=3)
    world = handle.world
    _drive(world, handle, random.Random(11), 150)
    twin = world.fork()
    assert twin.obs is not world.obs
    before = twin.obs.checked
    at_fork = _step_counts(twin)
    _drive(world, handle, random.Random(12), 400)
    # Each twin's bound instruments are its own registry's: driving
    # one advances only its counters.
    assert _step_counts(twin) == at_fork
    advanced = _step_counts(world)
    assert advanced == _actual_step_counts(world)
    _drive(twin, handle, random.Random(13), 400)
    assert _step_counts(world) == advanced
    assert _step_counts(twin) == _actual_step_counts(twin) != at_fork
    for observer in (world.obs, twin.obs):
        assert observer.mismatches == []
    assert twin.obs.checked > before + 100
    kinds = world.obs.kinds + twin.obs.kinds
    assert {"deliver", "invoke", "crash", "recover", "lose", "drop"} <= set(kinds)
    assert world.obs.registry.counters["faults.duplicates"].value > 0


def test_observer_reused_on_a_fresh_world():
    observer = CheckedObserver()
    first_handle = build_cas_system(n=5, f=1, value_bits=12)
    first_handle.world.obs = observer
    run_random_workload(first_handle, num_ops=8, seed=1)
    first = observer.checked
    fresh = build_cas_system(n=5, f=1, value_bits=12)
    fresh.world.obs = observer
    run_random_workload(fresh, num_ops=8, seed=2)
    assert observer.checked > first > 0
    assert observer.mismatches == []


def test_pickled_world_resynchronises_and_holds_no_world():
    handle = _faulty_world("cas", seed=5)
    world = handle.world
    _drive(world, handle, random.Random(21), 120)
    copy = pickle.loads(pickle.dumps(world))
    at_pickle = _step_counts(world)
    _drive(copy, handle, random.Random(22), 200)
    assert copy.obs.checked > world.obs.checked + 100
    assert copy.obs.mismatches == []
    assert _step_counts(world) == at_pickle
    assert _step_counts(copy) == _actual_step_counts(copy) != at_pickle
    # The observer outlives its World without keeping it alive.
    observer, alive = copy.obs, weakref.ref(copy)
    del copy
    gc.collect()
    assert alive() is None and observer.checked > 0


class _Box(ServerProcess):
    """Holds one bit per message received and two per recovery, and
    reports none while crashed (``storage_bits`` is a property)."""

    def __init__(self, pid, held=0):
        super().__init__(pid)
        self.held = held

    @property
    def storage_bits(self):
        return 0 if self.failed else self.held

    def on_message(self, ctx, src, message):
        self.held += 1

    def on_recover(self, ctx):
        self.held += 2


class _Scribe(ClientProcess):
    """A client that stores what it writes and forwards it to box ``a``."""

    def __init__(self, pid):
        super().__init__(pid)
        self.storage_bits = 0

    def start_write(self, ctx, op_id, value):
        self.storage_bits += value
        ctx.send("a", Message.make("w", v=value))
        self.finish(ctx)


def test_every_state_change_point_is_resampled():
    """Invocation, delivery, crash, recovery and a growing process set,
    each changing storage right before or right after its sample."""
    world = World()
    world.obs = observer = CheckedObserver()
    for process in (_Box("a"), _Box("b"), _Scribe("w")):
        world.add_process(process)
    world.invoke_write("w", 3)
    world.add_process(_Box("c", held=4))
    world.step()  # w -> a
    for _ in range(2):
        world.enqueue_message("c", "b", Message.make("m"))
    world.step()  # c -> b
    world.invoke_write("w", 2)
    world.crash("b")  # a crashed box reports no storage
    world.step()  # w -> a
    world.step()  # c -> b, consumed by the crashed box: a ``drop``
    world.recover("b")
    world.invoke_write("w", 1)
    while world.step() is not None:
        pass
    assert observer.mismatches == []
    assert observer.kinds == {
        "invoke": 3, "deliver": 4, "crash": 1, "drop": 1, "recover": 1,
    }
    # a: 3 messages, b: 1 message + 2 for the recovery, c: 4, w: 3 + 2
    # + 1; the last delivery's handler (a's third bit) runs after the
    # last sample.
    assert observer.registry.gauges["storage.total_bits"].value == 15
