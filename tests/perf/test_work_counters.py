"""Deterministic work counters for the hot paths (tier-1, no timing).

Counts calls into the hot functions and bounds each by the work the
run actually changed, or pins it outright.  Counts are exact functions
of the code, so the gates cannot flake.  Timing lives only in
perfbench (``BENCHMARK.json``); a regression that changes only wall
clock, such as a slower pool poll loop, is caught by its A/B runs, not
here.

The chaos step loop, over one instrumented campaign seed (ABD/CAS/CASGC
x the ten fault shapes, N=5, f=1, 6-bit values, 10 operations per
run).  A silent fallback to any per-step rescan fails it:

* the partition gate ``ChannelAdversary.partition_gate`` runs only
  while a partition is active, and at most once per step (the
  always-on gate made 120,967 per-channel ``allows`` calls here, 78%
  unpartitioned; gated on the partition, it still made 26,714 while
  partitioned, where the one-pass gate makes 1,628 calls);
* ``storage_bits`` calls stay within deliveries + invocations +
  recoveries, plus one full count per run (the per-action rescan made
  35,390 calls);
* ``Channel.__len__`` runs about once per delivery (the per-action
  in-flight rescan made 275,832 calls; so does an ``enabled_channels``
  that rescans every channel);
* the round-robin scheduler sorts ``enabled`` only when a channel it
  has not seen appears (it used to sort at every step);
* ``repro.sim.network`` sorts once per run, to build its sorted pids:
  a step reads the non-empty channel set in place, and only callers
  that read an order sort it (re-sorting the non-empty channel set
  after every transition made 6,498 sorts; a step that reads the
  sorted view ``enabled_channels`` makes 7,058);
* ``repro.sim.scheduler`` builds one set per scheduler, 30: a
  partitioned step hands ``select`` the gate's set, which it probes in
  place (a gate that returned a list made ``select`` build 1,437 more);
* ``repro.sim.events`` sorts 4,169 payloads for 6,433 sends: a client
  phase that sends one body to every server builds it with one
  ``Message.make`` (one per server sorted 6,433, one per send); coded
  phases and server replies still build one each.

The same seed's telemetry (a ``SimObserver`` per run with a bounded
trace tail; the ``telemetry`` tests) does only the work its output
needs:

* registry get-or-create calls stay within 3,000 (2,336 here): the
  observer binds the instruments it writes per action or send at
  their first use (a lookup by name per write made 98,247 calls);
* ``Gauge.set`` runs at most 4,600 times (4,491 here): a gauge is not
  re-set to the value it holds (a set of each gauge per action makes
  21,234);
* ``TraceEvent`` objects are built only for the tail each run keeps,
  at most 64 per run (one per event made 16,050);
* ``run_telemetry`` reads the counters without a
  ``MetricsRegistry.snapshot()`` (it took 30, one per run);
* the campaign decodes each run once, 30
  ``ChaosRunResult.from_cache_dict`` calls (decoding for the progress
  stream and again for the report made 60);
* with no cache or journal given, no ``campaign_task_key`` is hashed
  (one key per run made 30).

The measured Figure 1 over the benchmark's grid (ABD and CAS at
(N, f) = (7, 3), (9, 4), (11, 5) and ν = 1, 2, 4, 6; 24 points,
3,510 deliveries).  The peak sampler re-reads only the receiver of
each delivery:

* ``storage_bits`` calls stay within deliveries plus one full count of
  the N servers per point (re-reading every server after every step
  made 33,062 calls; the sampler makes 1,971);
* ``repro.sim.network`` makes no sort (3,534 before);
* ``repro.sim.scheduler`` builds one set per scheduler, 24: each step
  hands the World's own non-empty set to ``select``, which probes it in
  place (copying the index and building a set from the copy at every
  selection made 3,534);
* ``repro.sim.events`` sorts 2,262 payloads for 3,510 sends (one
  ``Message.make`` per server of a uniform phase made 3,510).

Schedule exploration, as ``repro explore`` runs it by default
(SWMR-ABD, N=3, f=1, 2-bit values, write || read): 455 states, 4
distinct terminal states, 1,663 deliveries and 1,213 forks, keyed up to
a relabelling of the three servers.  Keyed on each concrete
configuration the same space took 2,243 states, 18 terminals, 8,097
deliveries and 5,873 forks; keyed on the step counter and absolute
operation steps as well, 9,629 states, 672 terminals, 21,927
deliveries and 12,971 forks; the figures in parentheses below were
measured on that search unless they say otherwise.  Forks are
copy-on-write, so a branch clones and digests only what its delivery
changed; a fork that silently goes eager again fails it:

* ``Process.clone`` runs at most once per delivery (eager forks cloned
  every process: 64,855 calls);
* ``Channel.clone`` runs at most once per delivery or send (eager
  forks: 139,986 calls);
* digests read no channel length (the full channel scan made 247,470
  ``Channel.__len__`` calls);
* top-level process ``state_digest`` calls stay within two per visit
  (re-digesting every process made 109,640 calls);
* ``Channel.state_digest`` calls stay within deliveries (843 here):
  a channel the World does not own is digested once, like a process
  (re-digesting every non-empty channel made 27,870 calls);
* ``World.fork`` makes no ``copy.deepcopy`` call (the deepcopy fork
  made 17 per fork of a mid-operation CAS world);
* forks share the scheduler and ``World.step`` clones it on first
  use, so the explorer, which never steps, makes no
  ``RoundRobinScheduler.clone`` call (an eager clone made 5,873);
* forks share completed operation records: ``OperationRecord.clone``
  runs once per pending record at a fork, 1,952 times (9,457 on the
  unreduced search; cloning every record made 11,746);
* ``clone_instance_state`` copies ``__dict__`` in one call and
  re-clones only attributes that are neither atomic nor share-safe:
  5,649 ``clone_state_value`` calls (27,471 unreduced; one per
  attribute made 101,160);
* every state key's configuration part is a flat tuple of interned
  ints, one key per visit (1,664), from an intern table of 41 entries
  (nested digest tuples made 0 int keys; a fork that starts its own
  table splits the space into 40,812 states).  The unreduced search
  interned the same 41: the images of the visited entries under the
  six relabellings are exactly the entries of every reachable state;
* the explorer rebuilds a key's history part only when the number of
  operations or of pending operations changed: 451 times in 1,664
  visits (2,413 in 8,098 unreduced);
* a revisit returns before ``World.enabled_channels`` is read, so it
  runs once per state, 455 times (reading it at every visit made
  1,664 calls).

A coded-SWMR write || read search is not reduced (server ``i`` holds
code element ``i``): 2,555 states, symmetry order 1.

The atomicity checker, on an 800-operation ABD history (N=3, f=1,
4-bit values, 2 writers, 2 readers, seed 5).  The interval
decomposition's gain is in the quadratic precedence-closure setup, so
that is what is counted: no closure spans more intervals than the
largest quiescent segment (221), and the distinct closures cover
128,526 interval pairs where the monolithic search needs 640,000.
The search's work is pinned too, with each witness checked as a
linearization: 10,277 states decomposed, 3,810 with
``decompose=False``.  The decomposed search visits more because every
non-final segment enumerates all its final values, while the final
segment (the whole history under ``decompose=False``) stops at its
first linearization.

No reference cycles: the simulator and the explorer build none, so a
World the explorer or a campaign drops is freed at once by reference
counting.  With the collector off for the run, a collection afterwards
frees nothing after the exploration above, the campaign seed without
and with telemetry, and the Figure 1 grid pass.  While every channel
held its World's bound transition callback, every World with a channel
was cyclic garbage: 231,260, 15,709, 57,479 and 12,519 objects; an
exception class defined per ``explore()`` call, or a search closure
that calls itself, is a cycle too.

Tracing off costs nothing: ``World.obs`` is ``None``, and an untraced
fork, exploration and campaign call no ``SimObserver`` method and
build no ``TraceEvent``.  An untraced path that attaches an observer
fails it.  An unguarded hook call fails every untraced test with an
``AttributeError`` on ``None``, and a fork that deep-copies ``None``
fails the fork counter above.

The pool, over a 60-run campaign (ABD/CAS/CASGC x ten shapes x two
seeds, 4 operations) at two jobs: one ``apply_async`` per chunk (8 at
auto and at chunk 8, 60 at chunk 1; one per task is the old per-task
dispatch), chunk items that pickle to 9,478 bytes with the payload
codec against 11,430 without it, and every engine ``runtime`` counter
zero.  That calls reuse one pool is pinned in
``tests/parallel/test_pool.py``.
"""

import collections
import contextlib
import copy
import functools
import gc
import inspect
import math
import multiprocessing.pool
import pickle

import pytest

import repro.consistency.atomicity as atomicity_module
import repro.faults.campaign as campaign_module
import repro.sim.clone as clone_module
import repro.sim.events as events_module
import repro.sim.network as network_module
import repro.sim.scheduler as scheduler_module
import repro.verification.explore as explore_module
from repro.analysis.empirical import empirical_figure1
from repro.consistency.atomicity import check_atomicity
from repro.faults.adversary import ChannelAdversary
from repro.faults.campaign import ChaosRunResult, run_campaign
from repro.obs.recorder import SimObserver
from repro.obs.registry import Gauge, MetricsRegistry
from repro.obs.tracing import TRACE_TAIL_EVENTS, TraceEvent
from repro.registers.abd import ABDServer, build_abd_system
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.registers.cas import CASServer, build_cas_system
from repro.registers.catalog import EXPERIMENT_POPULATION, build_client_system
from repro.sim.channel import Channel
from repro.sim.events import OperationRecord
from repro.sim.network import World
from repro.sim.process import Process
from repro.sim.scheduler import RoundRobinScheduler
from repro.verification.explore import explore_all_schedules
from repro.workload.generator import run_random_workload

from tests.consistency.test_atomicity_decompose import assert_valid_witness

N, F, VALUE_BITS, NUM_OPS, SEED = 5, 1, 6, 10, 1

#: Engine knobs that would move campaign runs out of process.
ENGINE_ENV = ("REPRO_JOBS", "REPRO_CHUNK", "REPRO_TASK_TIMEOUT")


def _counting(tally, name, original, note=None):
    """``original``, wrapped to count its calls in ``tally[name]``."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tally[name] += 1
        if note is not None:
            note(args[0])
        return original(*args, **kwargs)

    return wrapper


def _engine_defaults(patch):
    for name in ENGINE_ENV:
        patch.delenv(name, raising=False)


def _count_sorts(patch, tally, module, name):
    """Shadow the ``sorted`` builtin inside ``module`` only, counting calls."""

    def counted(*args, **kwargs):
        tally[name] += 1
        return sorted(*args, **kwargs)

    patch.setattr(module, "sorted", counted, raising=False)


@contextlib.contextmanager
def _collector_off(tally, name):
    """Run the block with the cyclic collector off; count in
    ``tally[name]`` what a collection then frees (cyclic garbage)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        tally[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def counts():
    """Call counts over one telemetry campaign seed, run in-process."""
    tally = collections.Counter()

    def unpartitioned(adversary):
        if adversary.partition is None:
            tally["gate_unpartitioned"] += 1

    with pytest.MonkeyPatch.context() as patch:
        _engine_defaults(patch)
        for cls, attr, name, note in (
            (World, "deliver", "deliveries", None),
            (World, "step", "steps", None),
            (ChannelAdversary, "partition_gate", "gate", unpartitioned),
            (ABDServer, "storage_bits", "storage_bits", None),
            (CASServer, "storage_bits", "storage_bits", None),
            (Channel, "__len__", "channel_len", None),
            (MetricsRegistry, "counter", "registry_lookups", None),
            (MetricsRegistry, "gauge", "registry_lookups", None),
            (MetricsRegistry, "histogram", "registry_lookups", None),
            (MetricsRegistry, "timeseries", "registry_lookups", None),
            (MetricsRegistry, "snapshot", "snapshots", None),
            (Gauge, "set", "gauge_sets", None),
            (TraceEvent, "__init__", "trace_events", None),
            (RoundRobinScheduler, "__init__", "schedulers", None),
            (World, "enqueue_message", "sends", None),
        ):
            patch.setattr(
                cls, attr, _counting(tally, name, cls.__dict__[attr], note)
            )
        decode = ChaosRunResult.__dict__["from_cache_dict"].__func__
        patch.setattr(
            ChaosRunResult, "from_cache_dict",
            classmethod(_counting(tally, "decodes", decode)),
        )
        patch.setattr(
            campaign_module, "campaign_task_key",
            _counting(tally, "task_keys", campaign_module.campaign_task_key),
        )
        _count_sorts(patch, tally, scheduler_module, "scheduler_sorts")
        _count_sorts(patch, tally, network_module, "network_sorts")
        _count_sorts(patch, tally, events_module, "message_sorts")
        patch.setattr(
            scheduler_module, "set",
            _counting(tally, "scheduler_sets", set), raising=False,
        )
        with _collector_off(tally, "garbage"):
            report = run_campaign(
                algorithms=("abd", "cas", "casgc"), n=N, f=F,
                value_bits=VALUE_BITS, seeds=[SEED], num_ops=NUM_OPS, jobs=1,
                cache=None, telemetry=True,
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
    assert counts["gate"] > 0
    assert counts["gate_unpartitioned"] == 0


def test_partition_gate_runs_at_most_once_per_step(counts):
    assert counts["gate"] <= counts["steps"]


def test_storage_is_read_only_where_state_changed(counts):
    resyncs = counts["runs"] * N  # one full count of the servers per run
    bound = counts["deliveries"] + counts["invocations"] + counts["recoveries"]
    assert counts["storage_bits"] <= bound + resyncs


def _channels_per_run() -> int:
    """Every client<->server channel a run can open."""
    handle = build_client_system("abd", N, F, VALUE_BITS)
    return 2 * N * (len(handle.writer_ids) + len(handle.reader_ids))


def test_channel_length_is_read_about_once_per_delivery(counts):
    # One read per adversarial delivery (the reorder window); the rest
    # are once-per-run full counts, each at most one per channel.
    bound = counts["deliveries"] + counts["runs"] * _channels_per_run()
    assert counts["channel_len"] <= bound


def test_scheduler_sorts_only_when_a_new_channel_appears(counts):
    assert 0 < counts["scheduler_sorts"] <= counts["runs"] * _channels_per_run()


def test_scheduler_builds_one_set_per_scheduler(counts):
    # Partitioned steps included: the gate hands ``select`` a set.
    assert counts["scheduler_sets"] == counts["schedulers"] == 30


def test_channel_index_is_never_sorted(counts):
    # The one sort per run builds the sorted pids (``_sorted_pids``).
    assert counts["network_sorts"] <= counts["runs"]


def test_broadcasts_sort_each_request_body_once(counts):
    assert counts["sends"] == 6_433
    assert counts["message_sorts"] == 4_169


def test_telemetry_binds_instruments_once(counts):
    assert counts["registry_lookups"] <= 3_000


def test_telemetry_skips_gauge_writes_that_change_nothing(counts):
    assert counts["gauge_sets"] <= 4_600


def test_telemetry_builds_only_the_trace_events_the_tail_keeps(counts):
    assert counts["trace_events"] <= counts["runs"] * TRACE_TAIL_EVENTS


def test_telemetry_takes_no_registry_snapshot(counts):
    assert counts["snapshots"] == 0


def test_telemetry_campaign_leaves_no_cyclic_garbage(counts):
    assert counts["garbage"] == 0


def test_telemetry_campaign_decodes_each_run_once(counts):
    assert counts["decodes"] == 30


def test_telemetry_campaign_hashes_no_key_without_a_store(counts):
    assert counts["task_keys"] == 0


#: The benchmark's measured Figure 1 grid.
FIGURE1_GRID, FIGURE1_NUS = ((7, 3), (9, 4), (11, 5)), (1, 2, 4, 6)


@pytest.fixture(scope="module")
def figure1_counts():
    """Call counts over one pass of the measured Figure 1 grid."""
    tally = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        _engine_defaults(patch)
        for cls, attr, name in (
            (World, "deliver", "deliveries"),
            (ABDServer, "storage_bits", "storage_bits"),
            (CASServer, "storage_bits", "storage_bits"),
            (RoundRobinScheduler, "__init__", "schedulers"),
            (World, "enqueue_message", "sends"),
        ):
            patch.setattr(cls, attr, _counting(tally, name, vars(cls)[attr]))
        _count_sorts(patch, tally, network_module, "network_sorts")
        _count_sorts(patch, tally, events_module, "message_sorts")
        patch.setattr(
            scheduler_module, "set",
            _counting(tally, "scheduler_sets", set), raising=False,
        )
        with _collector_off(tally, "garbage"):
            for n, f in FIGURE1_GRID:
                series = empirical_figure1(n=n, f=f, nus=FIGURE1_NUS, jobs=1)
                points = len(series["measured_abd"]) + len(series["measured_cas"])
                tally["points"] += points
                tally["server_counts"] += points * n  # one full count per point
    return tally


def test_figure1_work_is_unchanged(figure1_counts):
    assert figure1_counts["points"] == 24
    assert figure1_counts["deliveries"] == 3_510


def test_figure1_storage_is_read_only_at_the_receiver(figure1_counts):
    bound = figure1_counts["deliveries"] + figure1_counts["server_counts"]
    assert figure1_counts["storage_bits"] <= bound


def test_figure1_sorts_nothing_in_the_simulator(figure1_counts):
    assert figure1_counts["network_sorts"] == 0


def test_figure1_scheduler_builds_one_set_per_scheduler(figure1_counts):
    assert figure1_counts["schedulers"] == figure1_counts["points"] == 24
    assert figure1_counts["scheduler_sets"] == figure1_counts["schedulers"]


def test_figure1_broadcasts_sort_each_request_body_once(figure1_counts):
    assert figure1_counts["sends"] == 3_510
    assert figure1_counts["message_sorts"] == 2_262


def test_figure1_leaves_no_cyclic_garbage(figure1_counts):
    assert figure1_counts["garbage"] == 0


EXPLORE_N, EXPLORE_F, EXPLORE_VALUE_BITS, EXPLORE_VALUE = 3, 1, 2, 1


def _explore_world():
    handle = build_swmr_abd_system(
        n=EXPLORE_N, f=EXPLORE_F, value_bits=EXPLORE_VALUE_BITS
    )
    world = handle.world
    world.invoke_write(handle.writer_ids[0], EXPLORE_VALUE)
    world.invoke_read(handle.reader_ids[0])
    return world


def _explore_tally() -> collections.Counter:
    """Call counts over one exhaustive exploration of the explore config."""
    tally = collections.Counter()
    depth = [0]
    roots = []

    def build():
        world = _explore_world()
        roots.append(world)
        return world

    def pending_at_fork(world):
        tally["pending_copied"] += len(world.pending_operations())

    state_key = explore_module._state_key

    def spy_key(*args, **kwargs):
        key = state_key(*args, **kwargs)
        tally["keys"] += 1
        if type(key[0]) is tuple and all(type(i) is int for i in key[0]):
            tally["int_keys"] += 1
        return key

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
            (World, "enqueue_message", "sends"),
            (World, "enabled_channels", "enabled_reads"),
            (Process, "clone", "process_clones"),
            (Channel, "clone", "channel_clones"),
            (Channel, "__len__", "channel_len"),
            (Channel, "state_digest", "channel_digests"),
            (RoundRobinScheduler, "clone", "scheduler_clones"),
            (OperationRecord, "clone", "record_clones"),
        ):
            patch.setattr(cls, attr, _counting(tally, name, vars(cls)[attr]))
        patch.setattr(
            World, "fork",
            _counting(tally, "forks", vars(World)["fork"], pending_at_fork),
        )
        for cls in digest_owners:
            patch.setattr(cls, "state_digest", top_level(vars(cls)["state_digest"]))
        # Module-level names: the recursion and the explorer look them
        # up at each call, so every call is counted.
        patch.setattr(
            clone_module, "clone_state_value",
            _counting(tally, "clone_state_values", clone_module.clone_state_value),
        )
        patch.setattr(
            explore_module, "_history_key",
            _counting(tally, "history_keys", explore_module._history_key),
        )
        patch.setattr(explore_module, "_state_key", spy_key)
        with _collector_off(tally, "garbage"):
            result = explore_all_schedules(build, max_states=100_000)
    assert result.exhausted and result.ok
    tally["states"] = result.states_visited
    tally["executions"] = result.executions_checked
    tally["symmetry_order"] = result.symmetry_order
    tally["interned"] = len(roots[0]._interned)
    return tally


@pytest.fixture(scope="module")
def explore_counts():
    """Call counts over one exhaustive exploration."""
    return _explore_tally()


def test_exploration_work_is_unchanged(explore_counts):
    assert explore_counts["states"] == 455
    assert explore_counts["executions"] == 4
    assert explore_counts["deliveries"] == 1_663
    assert explore_counts["forks"] == 1_213
    assert explore_counts["symmetry_order"] == 6


def test_coded_swmr_exploration_is_not_reduced():
    def build():
        handle = build_client_system(
            "coded-swmr", EXPLORE_N, EXPLORE_F, EXPLORE_VALUE_BITS,
            **EXPERIMENT_POPULATION,
        )
        world = handle.world
        world.invoke_write(handle.writer_ids[0], EXPLORE_VALUE)
        world.invoke_read(handle.reader_ids[0])
        return world

    result = explore_all_schedules(build, max_states=100_000)
    assert result.exhausted and result.ok
    assert (result.states_visited, result.symmetry_order) == (2_555, 1)


def test_explore_revisits_read_no_enabled_channels(explore_counts):
    assert explore_counts["enabled_reads"] == explore_counts["states"] == 455


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


def test_digests_reuse_unowned_channels(explore_counts):
    assert explore_counts["channel_digests"] <= explore_counts["deliveries"]


def test_exploration_leaves_no_cyclic_garbage(explore_counts):
    assert explore_counts["garbage"] == 0


def test_explorer_forks_clone_no_scheduler(explore_counts):
    assert explore_counts["scheduler_clones"] == 0


def test_forks_clone_only_pending_records(explore_counts):
    assert explore_counts["record_clones"] == explore_counts["pending_copied"]
    assert explore_counts["record_clones"] == 1_952


def test_explore_clones_copy_only_mutable_attributes(explore_counts):
    assert explore_counts["clone_state_values"] == 5_649


def test_explore_keys_are_flat_interned_ids(explore_counts):
    visits = explore_counts["deliveries"] + 1
    assert explore_counts["keys"] == explore_counts["int_keys"] == visits
    assert explore_counts["interned"] == 41


def test_explore_rebuilds_history_key_only_when_operations_change(explore_counts):
    assert explore_counts["history_keys"] == 451  # of 1,664 visits


def _mid_operation_world() -> World:
    """A CAS world mid-write and mid-read: a representative fork subject."""
    handle = build_cas_system(n=5, f=1, value_bits=12)
    world = handle.world
    world.invoke_write(handle.writer_ids[0], 7)
    world.invoke_read(handle.reader_ids[0])
    for _ in range(6):
        world.step()
    return world


def test_forks_make_no_deep_copies():
    world = _mid_operation_world()
    tally = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        # copy's own recursion looks the name up here too, so nested
        # deep copies are counted as well.
        patch.setattr(copy, "deepcopy", _counting(tally, "deepcopy", copy.deepcopy))
        for _ in range(100):
            world.fork()
    assert tally["deepcopy"] == 0


def test_checker_closures_stay_within_quiescent_segments():
    handle = build_abd_system(
        n=3, f=1, value_bits=4, num_writers=2, num_readers=2
    )
    history = run_random_workload(handle, num_ops=800, seed=5).operations
    assert len(history) == 800
    segments = atomicity_module._segments(history)
    largest = max(len(segment) for segment in segments)
    assert largest == 221

    def closure_sizes(**kwargs):
        sizes = {}
        closure = atomicity_module._closure_from_intervals

        def spy(intervals):
            sizes[intervals] = len(intervals)
            return closure(intervals)

        closure.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(atomicity_module, "_closure_from_intervals", spy)
            verdict = check_atomicity(history, **kwargs)
        return verdict, sizes

    # The decomposed check runs through the default argument, so a
    # default flipped to the monolithic search fails here.
    decomposed, sizes = closure_sizes()
    monolithic, mono_sizes = closure_sizes(decompose=False)
    assert decomposed.ok == monolithic.ok
    assert decomposed.states_explored == 10_277
    assert monolithic.states_explored == 3_810
    assert_valid_witness(history, 0, decomposed.linearization)
    assert_valid_witness(history, 0, monolithic.linearization)
    assert max(sizes.values()) <= largest
    assert sum(n * n for n in sizes.values()) == 128_526
    assert sum(n * n for n in mono_sizes.values()) == 800 * 800


@pytest.fixture(scope="module")
def untraced_calls():
    """SimObserver-method calls and TraceEvents over untraced work."""
    tally = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        _engine_defaults(patch)
        for name, attr in list(vars(SimObserver).items()):
            if inspect.isfunction(attr):
                label = f"SimObserver.{name}"
                patch.setattr(SimObserver, name, _counting(tally, label, attr))
        patch.setattr(
            TraceEvent, "__init__",
            _counting(tally, "TraceEvent", TraceEvent.__init__),
        )
        world = _mid_operation_world()
        for _ in range(50):
            world.fork()
        explore_all_schedules(_explore_world, max_states=1_500)
        with _collector_off(tally, "garbage"):
            report = run_campaign(
                algorithms=("abd", "cas", "casgc"), n=N, f=F,
                value_bits=VALUE_BITS, seeds=[SEED], num_ops=NUM_OPS, jobs=1,
                cache=None,
            )
    assert len(report.results) == 30
    return tally


def test_tracing_off_calls_no_observer_method(untraced_calls):
    observer_calls = {
        name: calls for name, calls in untraced_calls.items()
        if name.startswith("SimObserver.")
    }
    assert observer_calls == {}


def test_untraced_campaign_leaves_no_cyclic_garbage(untraced_calls):
    assert untraced_calls["garbage"] == 0


def test_tracing_off_builds_no_trace_event(untraced_calls):
    assert untraced_calls["TraceEvent"] == 0


DISPATCH_PARAMS = dict(
    algorithms=("abd", "cas", "casgc"), n=N, f=F, value_bits=VALUE_BITS,
    seeds=[0, 1], num_ops=4, jobs=2, cache=None,
)
DISPATCH_RUNS = 60


@pytest.fixture(scope="module")
def dispatches():
    """Per chunk setting: the campaign report and every chunk shipped."""
    items = []
    original = multiprocessing.pool.Pool.apply_async

    def spy(self, func, args=(), *rest, **kwargs):
        items.append(args[0])  # the (fn, codec, rows) chunk item
        return original(self, func, args, *rest, **kwargs)

    out = {}
    with pytest.MonkeyPatch.context() as patch:
        _engine_defaults(patch)
        patch.setattr(multiprocessing.pool.Pool, "apply_async", spy)
        for chunk in (0, 8, 1):  # 0 = auto
            report = run_campaign(chunk=chunk, **DISPATCH_PARAMS)
            out[chunk] = (report, list(items))
            items.clear()
    return out


def test_one_round_trip_per_chunk(dispatches):
    assert len(dispatches[0][1]) == 8  # auto: ceil(60 / (2 workers * 4))
    for chunk in (8, 1):
        assert len(dispatches[chunk][1]) == math.ceil(DISPATCH_RUNS / chunk)
    for report, _ in dispatches.values():
        assert len(report.results) == DISPATCH_RUNS
        assert not any(report.runtime.values())  # no timeout or fallback


def _uncoded(item):
    """A chunk item as it would ship with every payload whole."""
    fn, codec, rows = item
    if codec is None:
        return item
    return fn, None, [(index, codec.decode(delta)) for index, delta in rows]


def test_codec_shrinks_what_chunks_ship(dispatches):
    items = dispatches[0][1]
    coded = sum(len(pickle.dumps(item)) for item in items)
    uncoded = sum(len(pickle.dumps(_uncoded(item))) for item in items)
    assert coded == 9_478
    assert coded < uncoded  # 11,430 bytes
