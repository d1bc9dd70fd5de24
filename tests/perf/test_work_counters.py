"""Deterministic work counters for the hot loops (tier-1, no timing).

Counts calls into the per-step hot functions and bounds each by the
work the run actually changed.  Counts are exact functions of the
code, so the gates cannot flake.

The chaos step loop, over one instrumented campaign seed (ABD/CAS/CASGC
x the ten fault shapes, N=5, f=1, 6-bit values, 10 operations per
run).  A silent fallback to any per-step rescan fails it:

* ``ChannelAdversary.allows`` runs only while a partition is active
  (the always-on gate made 120,967 calls here, 78% unpartitioned);
* ``storage_bits`` calls stay within deliveries + invocations +
  recoveries, plus one full count per run (the per-action rescan made
  35,390 calls);
* ``Channel.__len__`` runs about once per delivery (the per-action
  in-flight rescan made 275,832 calls);
* the round-robin scheduler sorts ``enabled`` only when a channel it
  has not seen appears (it used to sort at every step).

Schedule exploration, as ``repro explore`` runs it by default
(SWMR-ABD, N=3, f=1, 2-bit values, write || read, no partial-order
reduction).  Forks are copy-on-write, so a branch clones and digests
only what its delivery changed; a fork that silently goes eager again
fails it:

* ``Process.clone`` runs at most once per delivery (eager forks cloned
  every process: 64,855 calls);
* ``Channel.clone`` runs at most once per delivery or send (eager
  forks: 139,986 calls);
* digests read no channel length (the full channel scan made 247,470
  ``Channel.__len__`` calls);
* top-level process ``state_digest`` calls stay within two per visit
  (re-digesting every process made 109,640 calls).
"""

import collections
import functools

import pytest

import repro.sim.scheduler as scheduler_module
from repro.faults.adversary import ChannelAdversary
from repro.faults.campaign import CAMPAIGN_ALGORITHMS, run_campaign
from repro.registers.abd import ABDServer
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.registers.cas import CASServer
from repro.sim.channel import Channel
from repro.sim.network import World
from repro.sim.process import Process
from repro.verification.explore import explore_all_schedules

N, F, VALUE_BITS, NUM_OPS, SEED = 5, 1, 6, 10, 1


@pytest.fixture(scope="module")
def counts():
    """Call counts over one telemetry campaign seed, run in-process."""
    tally = collections.Counter()

    def counted(name, original, note=None):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            tally[name] += 1
            if note is not None:
                note(self)
            return original(self, *args, **kwargs)

        return wrapper

    def unpartitioned(adversary):
        if adversary.partition is None:
            tally["allows_unpartitioned"] += 1

    def scheduler_sorted(*args, **kwargs):
        tally["scheduler_sorts"] += 1
        return sorted(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("REPRO_JOBS", "REPRO_TASK_TIMEOUT"):
            patch.delenv(name, raising=False)  # keep every run in-process
        for cls, attr, name, note in (
            (World, "deliver", "deliveries", None),
            (ChannelAdversary, "allows", "allows", unpartitioned),
            (ABDServer, "storage_bits", "storage_bits", None),
            (CASServer, "storage_bits", "storage_bits", None),
            (Channel, "__len__", "channel_len", None),
        ):
            patch.setattr(cls, attr, counted(name, cls.__dict__[attr], note))
        # Shadows the builtin inside the scheduler module only.
        patch.setattr(scheduler_module, "sorted", scheduler_sorted, raising=False)
        report = run_campaign(
            algorithms=("abd", "cas", "casgc"), n=N, f=F, value_bits=VALUE_BITS,
            seeds=[SEED], num_ops=NUM_OPS, jobs=1, cache=None, telemetry=True,
        )
    tally["runs"] = len(report.results)
    tally["invocations"] = sum(r.invoked for r in report.results)
    tally["recoveries"] = sum(r.recoveries for r in report.results)
    assert all(r.telemetry for r in report.results)
    return tally


def test_campaign_work_is_unchanged(counts):
    assert counts["runs"] == 30
    assert counts["deliveries"] == 6_756


def test_partition_gate_runs_only_while_partitioned(counts):
    assert counts["allows"] > 0
    assert counts["allows_unpartitioned"] == 0


def test_storage_is_read_only_where_state_changed(counts):
    resyncs = counts["runs"] * N  # one full count of the servers per run
    bound = counts["deliveries"] + counts["invocations"] + counts["recoveries"]
    assert counts["storage_bits"] <= bound + resyncs


def _channels_per_run() -> int:
    """Every client<->server channel a run can open."""
    handle = CAMPAIGN_ALGORITHMS["abd"](N, F, VALUE_BITS)
    return 2 * N * (len(handle.writer_ids) + len(handle.reader_ids))


def test_channel_length_is_read_about_once_per_delivery(counts):
    # One read per adversarial delivery (the reorder window); the rest
    # are once-per-run full counts, each at most one per channel.
    bound = counts["deliveries"] + counts["runs"] * _channels_per_run()
    assert counts["channel_len"] <= bound


def test_scheduler_sorts_only_when_a_new_channel_appears(counts):
    assert 0 < counts["scheduler_sorts"] <= counts["runs"] * _channels_per_run()


EXPLORE_N, EXPLORE_F, EXPLORE_VALUE_BITS, EXPLORE_VALUE = 3, 1, 2, 1


def _explore_world():
    handle = build_swmr_abd_system(
        n=EXPLORE_N, f=EXPLORE_F, value_bits=EXPLORE_VALUE_BITS
    )
    world = handle.world
    world.invoke_write(handle.writer_ids[0], EXPLORE_VALUE)
    world.invoke_read(handle.reader_ids[0])
    return world


@pytest.fixture(scope="module")
def explore_counts():
    """Call counts over one exhaustive exploration, no POR."""
    tally = collections.Counter()
    depth = [0]

    def counted(name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def top_level(original):
        # A digest that calls another digest counts once.
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not depth[0]:
                tally["state_digests"] += 1
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    digest_owners = set()
    for process in _explore_world().processes.values():
        owner = next(
            cls for cls in type(process).__mro__ if "state_digest" in vars(cls)
        )
        digest_owners.add(owner)

    with pytest.MonkeyPatch.context() as patch:
        for cls, attr, name in (
            (World, "deliver", "deliveries"),
            (World, "fork", "forks"),
            (World, "enqueue_message", "sends"),
            (Process, "clone", "process_clones"),
            (Channel, "clone", "channel_clones"),
            (Channel, "__len__", "channel_len"),
        ):
            patch.setattr(cls, attr, counted(name, vars(cls)[attr]))
        for cls in digest_owners:
            patch.setattr(cls, "state_digest", top_level(vars(cls)["state_digest"]))
        result = explore_all_schedules(_explore_world, max_states=100_000)
    assert result.exhausted and result.ok
    tally["states"] = result.states_visited
    tally["executions"] = result.executions_checked
    return tally


def test_exploration_work_is_unchanged(explore_counts):
    assert explore_counts["states"] == 9_629
    assert explore_counts["executions"] == 672
    assert explore_counts["deliveries"] == 21_927
    assert explore_counts["forks"] == 12_971


def test_forks_clone_only_the_receivers(explore_counts):
    assert explore_counts["process_clones"] <= explore_counts["deliveries"]


def test_forks_clone_only_the_channels_written(explore_counts):
    bound = explore_counts["deliveries"] + explore_counts["sends"]
    assert explore_counts["channel_clones"] <= bound


def test_digests_read_no_channel_length(explore_counts):
    assert explore_counts["channel_len"] == 0


def test_digests_reuse_unowned_processes(explore_counts):
    visits = explore_counts["deliveries"] + 1  # the root, then one per delivery
    assert explore_counts["state_digests"] <= 2 * visits
