"""E15 — exhaustive schedule verification (bounded model checking).

Times the explorer on the canonical configurations and records the
coverage numbers: the complete interleaving space of a write
concurrent with a read on SWMR-ABD (atomic + regular in every one of
its executions), and the mechanical discovery of a new/old-inversion
counterexample from the inversion prefix.
"""

from repro.consistency.atomicity import check_atomicity
from repro.consistency.regularity import check_regular
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.util.tables import format_table
from repro.verification.explore import ScheduleExplorer, explore_all_schedules

from benchmarks.common import emit


def _write_read_world():
    h = build_swmr_abd_system(n=3, f=1, value_bits=2, num_readers=1)
    w = h.world
    w.invoke_write(h.writer_ids[0], 1)
    w.invoke_read(h.reader_ids[0])
    return w


def _inversion_prefix_world():
    h = build_swmr_abd_system(n=3, f=1, value_bits=2, num_readers=2)
    w = h.world
    h.write(1)
    w.deliver_all()
    w.invoke_write(h.writer_ids[0], 2)
    w.deliver(h.writer_ids[0], "s000")
    w.invoke_read(h.reader_ids[0])
    return w


def bench_exhaustive_write_read(benchmark):
    # one round: the exploration is deterministic (about half a second)
    result = benchmark.pedantic(
        explore_all_schedules,
        args=(
            _write_read_world,
            lambda ops: check_atomicity(ops).ok and check_regular(ops).ok,
            50_000,
        ),
        rounds=1,
        iterations=1,
    )
    assert result.exhausted and result.ok


def bench_inversion_counterexample(benchmark):
    def hunt():
        explorer = ScheduleExplorer(
            checker=lambda ops: check_atomicity(ops).ok,
            followups=[(2, lambda world: world.invoke_read("r001"))],
            stop_at_first_violation=True,
            max_states=200_000,
        )
        return explorer.explore(_inversion_prefix_world())

    result = benchmark(hunt)
    assert result.violations

    # record coverage stats for both experiments
    full = explore_all_schedules(
        _write_read_world,
        lambda ops: check_atomicity(ops).ok,
        50_000,
    )
    path, ops = result.violations[0]
    reads = [op.value for op in ops if op.kind == "read"]
    emit(
        "verification",
        format_table(
            ("experiment", "states", "distinct terminal states", "outcome"),
            [
                (
                    "SWMR write||read, all schedules",
                    full.states_visited,
                    full.executions_checked,
                    "atomic in every execution",
                ),
                (
                    "inversion prefix, DFS hunt",
                    result.states_visited,
                    result.executions_checked,
                    f"counterexample found: reads {reads}",
                ),
            ],
        ),
    )
