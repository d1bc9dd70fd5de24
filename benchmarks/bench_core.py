"""Core hot-path benchmark: fork, step, explore, and check throughput.

Measures the four rates everything else in the repo is built on, each
with its legacy implementation alongside the current one so the JSON
record carries before/after speedup factors:

* **fork** — ``World.deepcopy_fork`` (the pre-overhaul ``copy.deepcopy``
  path, kept as the reference implementation) vs the copy-on-write
  ``World.fork``.  The fast side times only the sharing step (two dict
  copies plus the eager clones); the clones a branch needs happen in
  the deliveries that follow, so what branching costs end to end is
  measured by perfbench ``explore``, not here.
* **enabled channels** — a full rescan of every channel (the legacy
  per-step cost, reimplemented here) vs the incrementally maintained
  non-empty index.
* **exploration** — the seed explorer loop (deepcopy fork on *every*
  branch, no reduction, reimplemented here) vs
  :class:`~repro.verification.explore.ScheduleExplorer` with the fast
  fork and sleep-set partial-order reduction, on the exhaustive SWMR
  write||read configuration.  Verdicts are asserted identical.
* **checker** — ``check_atomicity`` with the interval decomposition off
  vs on, over a long workload-generated history.
* **tracing** — the disabled-tracing overhead on the fork and
  exploration paths: the shipped falsy ``NO_OP`` observer vs the
  cheapest possible falsy floor (``obs = None``), plus the enabled
  collector's cost for context.  ``perf_guard`` budgets the disabled
  overhead at <3%.

Run via ``make bench-core`` (or ``python -m benchmarks.bench_core``);
the record lands in ``benchmarks/results/BENCH_core.json``.  The
committed copy of that file is the perf baseline that
``benchmarks.perf_guard`` (and the tier-2 regression test) compares
speedup factors against.
"""

from __future__ import annotations

import copy
import time
from typing import Callable, Dict, List, Tuple

from repro.consistency.atomicity import check_atomicity
from repro.consistency.regularity import check_regular
from repro.obs.recorder import NO_OP, SimObserver
from repro.obs.tracing import TraceCollector
from repro.registers.abd import build_abd_system
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.registers.cas import build_cas_system
from repro.sim.network import World
from repro.sim.snapshot import world_digest
from repro.verification.explore import ScheduleExplorer
from repro.workload.generator import run_random_workload

from benchmarks.common import write_perf_record


def _rate(fn: Callable[[], None], min_wall: float = 0.3) -> float:
    """Calls per second of ``fn``, measured over at least ``min_wall``."""
    # Warm caches/JIT-free interpreter state with one untimed call.
    fn()
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_wall:
            return calls / elapsed


def _mid_operation_world() -> World:
    """A CAS world mid-write/mid-read — a representative fork subject."""
    handle = build_cas_system(n=5, f=1, value_bits=12)
    world = handle.world
    world.invoke_write(handle.writer_ids[0], 7)
    world.invoke_read(handle.reader_ids[0])
    for _ in range(6):
        world.step()
    return world


def bench_fork() -> Dict[str, float]:
    """deepcopy_fork vs copy-on-write fork on the same mid-operation world."""
    world = _mid_operation_world()
    assert world_digest(world.fork()) == world_digest(world.deepcopy_fork())
    deepcopy_rate = _rate(lambda: world.deepcopy_fork())
    fast_rate = _rate(lambda: world.fork())
    return {
        "deepcopy_forks_per_s": round(deepcopy_rate, 1),
        "fast_forks_per_s": round(fast_rate, 1),
        "speedup": round(fast_rate / deepcopy_rate, 2),
    }


def _legacy_enabled_channels(world: World) -> List[Tuple[str, str]]:
    """The seed implementation: rescan every channel on every query."""
    keys = sorted(key for key, ch in world.channels.items() if len(ch) > 0)
    if world.adversary is not None:
        keys = [k for k in keys if world.adversary.allows(*k)]
    return keys


def bench_enabled_channels() -> Dict[str, float]:
    """Full O(channels) rescan vs the incremental non-empty index."""
    world = _mid_operation_world()
    assert _legacy_enabled_channels(world) == world.enabled_channels()
    rescan_rate = _rate(lambda: _legacy_enabled_channels(world))
    incremental_rate = _rate(lambda: world.enabled_channels())
    return {
        "rescan_per_s": round(rescan_rate, 1),
        "incremental_per_s": round(incremental_rate, 1),
        "speedup": round(incremental_rate / rescan_rate, 2),
    }


def bench_steps() -> Dict[str, float]:
    """End-to-end simulator throughput on a random ABD workload."""
    def run() -> None:
        handle = build_abd_system(
            n=5, f=2, value_bits=8, num_writers=2, num_readers=2
        )
        run_random_workload(handle, num_ops=40, seed=11)

    handle = build_abd_system(n=5, f=2, value_bits=8, num_writers=2, num_readers=2)
    steps = run_random_workload(handle, num_ops=40, seed=11).steps
    runs_per_s = _rate(run)
    return {"steps_per_s": round(runs_per_s * steps, 1)}


def _swmr_write_read_world() -> World:
    """The exhaustive test configuration: one write || one read."""
    handle = build_swmr_abd_system(n=3, f=1, value_bits=2, num_readers=1)
    world = handle.world
    world.invoke_write(handle.writer_ids[0], 1)
    world.invoke_read(handle.reader_ids[0])
    return world


def _checker(ops) -> bool:
    return check_atomicity(ops).ok and check_regular(ops).ok


def _legacy_explore(world: World, max_states: int) -> Dict[str, int]:
    """The seed explorer: deepcopy fork per branch, no reduction."""
    visited = set()
    stats = {"states": 0, "executions": 0, "violations": 0}

    def digest(w: World) -> tuple:
        ops = tuple(
            (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
            for op in w.operations
        )
        return (world_digest(w), ops)

    def visit(state: World) -> None:
        key = digest(state)
        if key in visited:
            return
        visited.add(key)
        stats["states"] += 1
        if stats["states"] > max_states:
            raise RuntimeError("legacy exploration exceeded state budget")
        enabled = state.enabled_channels()
        if not enabled:
            stats["executions"] += 1
            if not _checker(list(state.operations)):
                stats["violations"] += 1
            return
        for key_choice in enabled:
            child = state.deepcopy_fork()
            child.deliver(*key_choice)
            visit(child)

    root = world.deepcopy_fork()
    root.record_trace = False
    visit(root)
    return stats


def bench_exploration() -> Dict[str, float]:
    """Seed explorer vs fast-fork + POR on the exhaustive SWMR config."""
    start = time.perf_counter()
    legacy = _legacy_explore(_swmr_write_read_world(), max_states=50_000)
    legacy_wall = time.perf_counter() - start

    explorer = ScheduleExplorer(checker=_checker, max_states=50_000, por=True)
    start = time.perf_counter()
    result = explorer.explore(_swmr_write_read_world())
    fast_wall = time.perf_counter() - start

    assert result.exhausted and result.ok
    assert legacy["violations"] == len(result.violations) == 0
    assert legacy["executions"] == result.executions_checked
    return {
        "legacy_wall_s": round(legacy_wall, 3),
        "fast_por_wall_s": round(fast_wall, 3),
        "speedup": round(legacy_wall / fast_wall, 2),
        "executions": result.executions_checked,
        "states_per_s": round(result.states_visited / fast_wall, 1),
    }


def bench_checker() -> Dict[str, float]:
    """Monolithic vs interval-decomposed atomicity checking.

    Every distinct history pays the precedence-closure setup once, so
    the closure cache is cleared before each timed call — the measured
    quantity is a *cold* single-shot check, the chaos-campaign access
    pattern (each run produces a fresh history).
    """
    from repro.consistency.atomicity import _closure_from_intervals

    handle = build_abd_system(
        n=3, f=1, value_bits=4, num_writers=2, num_readers=2
    )
    history = run_random_workload(handle, num_ops=800, seed=5).operations
    mono = check_atomicity(history, decompose=False)
    deco = check_atomicity(history)
    assert mono.ok == deco.ok

    def cold(decompose: bool) -> None:
        _closure_from_intervals.cache_clear()
        check_atomicity(history, decompose=decompose)

    mono_rate = _rate(lambda: cold(False))
    deco_rate = _rate(lambda: cold(True))
    return {
        "history_len": len(history),
        "monolithic_checks_per_s": round(mono_rate, 2),
        "decomposed_checks_per_s": round(deco_rate, 2),
        "speedup": round(deco_rate / mono_rate, 2),
    }


def _paired_overhead(
    subject: Callable[[], None],
    floor: Callable[[], None],
    reps: int = 7,
    min_wall: float = 0.12,
) -> Tuple[float, float, float]:
    """``(overhead, subject_rate, floor_rate)`` via A/B/A pairing.

    The effect being bounded (one truth test per hook site, ~60ns on a
    ~50µs call) is far below single-measurement noise, so each rep
    brackets the subject between two floor measurements — linear host
    drift cancels — and the *minimum* rep wins: noise only ever
    inflates a measured overhead, so the smallest observation is the
    sharpest available upper bound on the true cost, while a real
    contract break (a truthy null observer, a default-attached
    collector, an unguarded hook call) inflates every rep far past the
    budget.  The garbage collector is paused during timing: GC pauses
    otherwise dominate a sub-1% effect.
    """
    import gc

    overheads, subject_rates, floor_rates = [], [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            floor_before = _rate(floor, min_wall)
            gc.collect()
            subject_rate = _rate(subject, min_wall)
            gc.collect()
            floor_after = _rate(floor, min_wall)
            gc.collect()
            floor_rate = (floor_before + floor_after) / 2.0
            overheads.append(1.0 - subject_rate / floor_rate)
            subject_rates.append(subject_rate)
            floor_rates.append(floor_rate)
    finally:
        if gc_was_enabled:
            gc.enable()
    return (
        max(0.0, min(overheads)),
        max(subject_rates),
        max(floor_rates),
    )


def bench_tracing() -> Dict[str, float]:
    """Disabled-tracing overhead on the fork and exploration paths.

    The falsy ``NO_OP`` contract promises an uninstrumented run pays
    exactly one truth test per hook site.  Measured directly: the same
    micro-benchmark with the shipped ``NO_OP`` default vs the cheapest
    possible falsy observer (``obs = None``), on the *same* objects so
    only the observer differs.  Any break of the contract — a truthy
    null object, a default-attached collector, an unguarded hook call,
    an expensive ``NO_OP`` deepcopy on fork — shows up as ``NO_OP``
    paying measurably more than the floor.  ``perf_guard`` budgets
    both overheads at <3%.  The enabled collector's fork rate is
    reported for context only: deep-copying a live trace on every
    fork is *expected* to cost real time.
    """
    assert not NO_OP and copy.deepcopy(NO_OP) is NO_OP

    world = _mid_operation_world()

    def fork_with(obs_value) -> Callable[[], None]:
        def fn() -> None:
            world.obs = obs_value
            world.fork()

        return fn

    fork_overhead, noop_rate, floor_rate = _paired_overhead(
        fork_with(NO_OP), fork_with(None)
    )
    world.obs = SimObserver(tracer=TraceCollector(max_events=64))
    traced_rate = _rate(lambda: world.fork())

    # A bounded exploration keeps one run cheap enough to pair; both
    # variants deterministically visit the identical state prefix.
    def explore_with(obs_value) -> Callable[[], None]:
        def fn() -> None:
            w = _swmr_write_read_world()
            w.obs = obs_value
            explorer = ScheduleExplorer(
                checker=_checker, max_states=1500, por=True
            )
            explorer.explore(w)

        return fn

    explore_overhead, noop_explores, floor_explores = _paired_overhead(
        explore_with(NO_OP), explore_with(None), reps=5
    )

    return {
        "fork_noop_per_s": round(noop_rate, 1),
        "fork_floor_per_s": round(floor_rate, 1),
        "fork_disabled_overhead": round(fork_overhead, 4),
        "fork_traced_per_s": round(traced_rate, 1),
        "explore_noop_per_s": round(noop_explores, 2),
        "explore_floor_per_s": round(floor_explores, 2),
        "explore_disabled_overhead": round(explore_overhead, 4),
    }


def run_core_bench() -> Dict[str, dict]:
    """Run every section and return the full record."""
    return {
        "fork": bench_fork(),
        "enabled_channels": bench_enabled_channels(),
        "simulator": bench_steps(),
        "exploration": bench_exploration(),
        "checker": bench_checker(),
        "tracing": bench_tracing(),
    }


def main() -> None:
    record = run_core_bench()
    path = write_perf_record("core", record)
    print(f"saved {path}")
    for section, values in record.items():
        print(f"  {section}: " + ", ".join(f"{k}={v}" for k, v in values.items()))


if __name__ == "__main__":
    main()
