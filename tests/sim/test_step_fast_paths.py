"""Reference equivalence for the per-step fast paths.

Four pieces of per-step work skip what the step did not change:

* ``RoundRobinScheduler.select`` re-sorts and registers keys only when
  ``enabled`` holds a key it has not seen, and hashes each enabled key
  of a list at most once (a set, the World's own or the partition
  gate's, it reads in place);
* ``World.enabled_channels`` sorts the set of non-empty channel keys
  each channel keeps up to date, and consults the adversary's
  partition gate only while a partition is active, in one call for
  the whole index;
* ``ChannelAdversary.partition_gate`` filters that index into a set
  in one pass instead of one per-channel ``allows`` call
  (:func:`_allows`);
* ``Partition.side_of``/``crosses`` read a pid -> group map built once.

Each is checked here against the implementation it replaced, kept
below as the oracle.
"""

import copy
import dataclasses
import pickle
import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import pytest

from repro.errors import SchedulerExhaustedError
from repro.faults.adversary import AdversaryConfig, ChannelAdversary, Partition
from repro.sim.events import Message
from repro.sim.network import World
from repro.sim.process import ServerProcess
from repro.sim.scheduler import ChannelFilter, RoundRobinScheduler


# -- the replaced implementations (oracles) ---------------------------------


class _RescanningRoundRobin(RoundRobinScheduler):
    """The old ``select``: sort and probe every enabled key per step."""

    def select(self, world, enabled):
        for key in sorted(enabled):
            if key not in self._known:
                self._known.add(key)
                self._order.append(key)
        enabled_set = set(enabled)
        total = len(self._order)
        for offset in range(total):
            index = (self._cursor + offset) % total
            key = self._order[index]
            if key in enabled_set:
                self._cursor = index + 1
                return key
        raise SchedulerExhaustedError("no enabled channel")


def _allows(adversary: ChannelAdversary, src: str, dst: str) -> bool:
    """The old per-channel gate ``ChannelAdversary.allows``."""
    return adversary.partition is None or not adversary.partition.crosses(src, dst)


def _always_gated(world: World, channel_filter: Optional[ChannelFilter] = None):
    """The old ``enabled_channels``: rescan and sort every channel, then
    the per-channel partition gate on every key."""
    keys = sorted(k for k, ch in world.channels.items() if len(ch) > 0)
    if channel_filter is not None:
        keys = [
            k
            for k in keys
            if channel_filter.allows(*k, head_message=world.channels[k].peek())
        ]
    if world.adversary is not None:
        keys = [k for k in keys if _allows(world.adversary, *k)]
    return keys


def _linear_side_of(partition: Partition, pid: str) -> int:
    """The old ``side_of``: scan the groups in order."""
    for index, group in enumerate(partition.groups):
        if pid in group:
            return index
    return -1


class _Sink(ServerProcess):
    """A server that accepts any message and does nothing."""

    def on_message(self, ctx, src, message):
        pass


@dataclass(frozen=True)
class _PlainPartition:
    """``Partition`` as a bare dataclass of its one field."""

    groups: Tuple[FrozenSet[str], ...]


# -- scheduler --------------------------------------------------------------


PIDS = [f"p{i}" for i in range(6)]
ALL_KEYS = [(s, d) for s in PIDS for d in PIDS if s != d]


@pytest.mark.parametrize("seed", range(8))
def test_round_robin_select_matches_rescanning_loop(seed):
    rng = random.Random(seed)
    fast, legacy = RoundRobinScheduler(), _RescanningRoundRobin()
    pool = rng.sample(ALL_KEYS, 4)
    for step in range(400):
        if step % 40 == 39 and len(pool) < len(ALL_KEYS):
            # A channel not seen before appears mid-run.
            pool.append(rng.choice([k for k in ALL_KEYS if k not in pool]))
        enabled = rng.sample(pool, rng.randint(1, len(pool)))  # unsorted
        before = list(enabled)
        assert fast.select(None, enabled) == legacy.select(None, list(enabled))
        assert enabled == before
        assert fast._order == legacy._order
        assert fast._known == legacy._known
        assert fast._cursor == legacy._cursor
    assert len(fast._order) > 4


class _CountedKey(tuple):
    """A channel key that counts how often any key of its type is hashed."""

    hashes = 0

    def __hash__(self):
        _CountedKey.hashes += 1
        return tuple.__hash__(self)


@pytest.mark.parametrize("seed", range(4))
def test_round_robin_select_hashes_each_enabled_key_once(seed):
    """One hash per enabled key (the probed set), plus one per probe of
    the cyclic scan and one per key registered; never a second pass
    over ``enabled``."""
    rng = random.Random(seed)
    keys = [_CountedKey(key) for key in ALL_KEYS]
    scheduler = RoundRobinScheduler()
    pool = rng.sample(keys, 4)
    for step in range(400):
        if step % 40 == 39 and len(pool) < len(keys):
            pool.append(rng.choice([k for k in keys if k not in pool]))
        enabled = rng.sample(pool, rng.randint(1, len(pool)))
        known_before = len(scheduler._known)
        cursor = scheduler._cursor
        _CountedKey.hashes = 0
        picked = scheduler.select(None, enabled)
        hashes = _CountedKey.hashes
        order = scheduler._order
        new = len(scheduler._known) - known_before
        probes = (order.index(picked) - cursor) % len(order) + 1
        assert hashes <= len(enabled) + probes + new


# -- partition gate ---------------------------------------------------------


def _random_partition(rng: random.Random, pids: List[str]) -> Partition:
    chosen = rng.sample(pids, rng.randint(1, len(pids) - 1))
    cut = rng.randint(1, len(chosen))
    groups = [chosen[:cut], chosen[cut:]] if cut < len(chosen) else [chosen]
    return Partition.split(*groups)


@pytest.mark.parametrize("seed", range(6))
def test_enabled_channels_matches_always_gated_scan(seed):
    """Random sends and deliveries while partitions start, heal and are
    replaced; with and without a channel filter."""
    rng = random.Random(seed)
    world = World()
    pids = [f"s{i}" for i in range(5)]
    for pid in pids:
        world.add_process(_Sink(pid))
    world.adversary = ChannelAdversary(AdversaryConfig(), seed=seed)
    hold = ChannelFilter.freeze_process("s0")
    states = set()
    for _ in range(600):
        roll = rng.random()
        if roll < 0.05:
            world.adversary.start_partition(_random_partition(rng, pids))
        elif roll < 0.08:
            world.adversary.heal_partition()
        elif roll < 0.55:
            src, dst = rng.sample(pids, 2)
            world.channel(src, dst).enqueue(Message.make("m", n=rng.randint(0, 9)))
        for channel_filter in (None, hold):
            got = world.enabled_channels(channel_filter)
            assert got == _always_gated(world, channel_filter)
        states.add(world.adversary.partition is not None)
        enabled = world.enabled_channels()
        if enabled and roll >= 0.55:
            world.deliver(*rng.choice(enabled))
    assert states == {True, False}


# -- partition lookup -------------------------------------------------------


PARTITIONS = [
    Partition.isolate(["r0", "s4"]),
    Partition.split(["a", "b"], ["c"], ["d", "e"]),
    Partition.split(),
    Partition.isolate([]),
]


@pytest.mark.parametrize("partition", PARTITIONS, ids=repr)
def test_side_of_and_crosses_match_linear_scan(partition):
    named = sorted(set().union(*partition.groups))
    pids = named + ["zz", "", "s0"]  # plus pids no group names
    for pid in pids:
        assert partition.side_of(pid) == _linear_side_of(partition, pid)
    for src in pids:
        for dst in pids:
            assert partition.crosses(src, dst) == (
                _linear_side_of(partition, src) != _linear_side_of(partition, dst)
            )


@pytest.mark.parametrize("partition", PARTITIONS, ids=repr)
def test_partition_gate_matches_allows_per_channel(partition):
    pids = sorted(set().union(*partition.groups)) + ["zz", "s0"]
    keys = [(src, dst) for src in pids for dst in pids if src != dst]
    adversary = ChannelAdversary()
    assert adversary.partition_gate(keys) == set(keys)  # no partition: all open
    adversary.start_partition(partition)
    gated = adversary.partition_gate(keys)
    assert gated == {k for k in keys if _allows(adversary, *k)}
    assert gated is not keys


@pytest.mark.parametrize("partition", PARTITIONS, ids=repr)
def test_partition_value_semantics_unchanged(partition):
    plain = _PlainPartition(partition.groups)
    assert [f.name for f in dataclasses.fields(Partition)] == ["groups"]
    assert repr(partition) == repr(plain).replace("_PlainPartition", "Partition")
    assert hash(partition) == hash(plain)
    assert partition == Partition(partition.groups)
    assert partition != Partition(partition.groups + (frozenset({"new"}),))
    # The pickled state is the one field, exactly as before.
    protocol = pickle.HIGHEST_PROTOCOL
    assert partition.__reduce_ex__(protocol)[2] == plain.__reduce_ex__(protocol)[2]
    for twin in (pickle.loads(pickle.dumps(partition)), copy.deepcopy(partition)):
        assert twin == partition and hash(twin) == hash(partition)
        assert twin.crosses("a", "zz") == partition.crosses("a", "zz")
        for pid in set().union(*partition.groups):
            assert twin.side_of(pid) == partition.side_of(pid)
