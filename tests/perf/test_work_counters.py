"""Deterministic work counters for the chaos step loop (tier-1, no timing).

Counts calls into the per-step hot functions over one instrumented
campaign seed (ABD/CAS/CASGC x the ten fault shapes, N=5, f=1, 6-bit
values, 10 operations per run) and bounds each by the work the run
actually changed.  Counts are exact functions of the code, so the gate
cannot flake, and a silent fallback to any per-step rescan fails it:

* ``ChannelAdversary.allows`` runs only while a partition is active
  (the always-on gate made 120,967 calls here, 78% unpartitioned);
* ``storage_bits`` calls stay within deliveries + invocations +
  recoveries, plus one full count per run (the per-action rescan made
  35,390 calls);
* ``Channel.__len__`` runs about once per delivery (the per-action
  in-flight rescan made 275,832 calls);
* the round-robin scheduler sorts ``enabled`` only when a channel it
  has not seen appears (it used to sort at every step).
"""

import collections
import functools

import pytest

import repro.sim.scheduler as scheduler_module
from repro.faults.adversary import ChannelAdversary
from repro.faults.campaign import CAMPAIGN_ALGORITHMS, run_campaign
from repro.registers.abd import ABDServer
from repro.registers.cas import CASServer
from repro.sim.channel import Channel
from repro.sim.network import World

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
