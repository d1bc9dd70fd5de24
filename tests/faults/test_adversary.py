"""Tests for adversarial channel behaviors (drops, dups, reorder, partitions)."""

import pytest

from repro.consistency.atomicity import check_atomicity
from repro.errors import ConfigurationError, DeadlockDetectedError
from repro.faults.adversary import AdversaryConfig, ChannelAdversary, Partition
from repro.registers.abd import build_abd_system
from repro.sim.scheduler import ChannelFilter


def lossy_adversary(handle, drop=0.5, seed=0, **kwargs):
    return ChannelAdversary(
        AdversaryConfig(
            drop_probability=drop,
            lossy_processes=frozenset(handle.server_ids[-handle.f:]),
            **kwargs,
        ),
        seed=seed,
    )


class TestPartition:
    def test_sides_and_crossing(self):
        part = Partition.isolate(["r000", "s004"])
        assert part.crosses("r000", "s000")
        assert part.crosses("s000", "s004")
        assert not part.crosses("r000", "s004")
        assert not part.crosses("s000", "s001")  # both in implicit rest group

    def test_split_groups(self):
        part = Partition.split(["a", "b"], ["c"])
        assert not part.crosses("a", "b")
        assert part.crosses("a", "c")
        assert part.crosses("c", "d")  # d is in the rest group

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            Partition.split(["a", "b"], ["b", "c"])


class TestAdversaryConfig:
    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversaryConfig(duplicate_probability=1.5).validate()

    def test_unrestricted_drops_rejected(self):
        # Loss without a target set breaks liveness below the budget.
        with pytest.raises(ConfigurationError):
            AdversaryConfig(drop_probability=0.1).validate()

    def test_default_config_is_reliable(self):
        adv = ChannelAdversary()
        assert adv.fate("a", "b", None) == "deliver"
        assert adv.pick_index(("a", "b"), 5) == 0
        assert adv.partition_gate([("a", "b")]) == {("a", "b")}


class TestPartitionGate:
    def test_partition_disables_crossing_channels(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        world = handle.world
        adv = ChannelAdversary()
        world.adversary = adv
        world.invoke_write(handle.writer_ids[0], 3)
        adv.start_partition(Partition.isolate([handle.writer_ids[0]]))
        assert world.enabled_channels() == []
        assert world.undelivered_channels()  # messages still queued

    def test_heal_reenables_and_write_completes(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        world = handle.world
        adv = ChannelAdversary()
        world.adversary = adv
        record = world.invoke_write(handle.writer_ids[0], 3)
        adv.start_partition(Partition.isolate([handle.writer_ids[0]]))
        with pytest.raises(DeadlockDetectedError) as info:
            world.run_op_to_completion(record)
        assert info.value.blocked_channels  # structured diagnosis
        adv.heal_partition()
        world.run_op_to_completion(record)
        assert record.is_complete

    def test_partition_composes_with_channel_filter(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        world = handle.world
        adv = ChannelAdversary()
        world.adversary = adv
        world.invoke_write(handle.writer_ids[0], 1)
        adv.start_partition(Partition.isolate([handle.server_ids[0]]))
        # Filter freezes s001; partition cuts s000: neither may deliver.
        enabled = world.enabled_channels(
            ChannelFilter.freeze_process(handle.server_ids[1])
        )
        endpoints = {pid for key in enabled for pid in key}
        assert handle.server_ids[0] not in endpoints
        assert handle.server_ids[1] not in endpoints
        assert enabled  # other servers still reachable


class TestDropsDupsReorder:
    def test_drops_recorded_as_lose_actions(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        handle.world.adversary = lossy_adversary(handle, drop=1.0, max_drops=3)
        handle.write(5)
        handle.read()
        losses = [a for a in handle.world.trace if a.kind == "lose"]
        assert len(losses) == 3  # capped by max_drops
        lossy = handle.server_ids[-1]
        assert all(lossy in (a.src, a.dst) for a in losses)

    def test_write_completes_despite_lossy_server(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        handle.world.adversary = lossy_adversary(handle, drop=1.0)
        handle.write(5)
        assert handle.read().value == 5

    def test_duplicates_preserve_atomicity(self):
        handle = build_abd_system(n=5, f=1, value_bits=4, num_readers=2)
        handle.world.adversary = ChannelAdversary(
            AdversaryConfig(duplicate_probability=0.5), seed=7
        )
        for v in (1, 2, 3):
            handle.write(v)
            handle.read(reader=handle.reader_ids[0])
            handle.read(reader=handle.reader_ids[1])
        assert handle.world.adversary.duplicates > 0
        assert check_atomicity(handle.world.operations).ok

    def test_reordering_bounded_and_safe(self):
        handle = build_abd_system(n=5, f=1, value_bits=4)
        handle.world.adversary = ChannelAdversary(
            AdversaryConfig(
                reorder_probability=0.8,
                reorder_window=3,
                duplicate_probability=0.3,
            ),
            seed=11,
        )
        for v in (1, 2, 3, 4):
            handle.write(v)
        assert handle.read().value == 4
        assert check_atomicity(handle.world.operations).ok

    def test_seeded_determinism(self):
        def run(seed):
            handle = build_abd_system(n=5, f=2, value_bits=4)
            handle.world.adversary = lossy_adversary(
                handle, drop=0.4, seed=seed, duplicate_probability=0.2
            )
            handle.write(9)
            handle.read()
            return (
                handle.world.adversary.stats(),
                [(a.kind, a.src, a.dst) for a in handle.world.trace],
            )

        assert run(3) == run(3)
        assert run(3) != run(4)  # different seed, different fault pattern
