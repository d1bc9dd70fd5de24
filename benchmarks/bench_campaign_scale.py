"""E18 — spend the headroom: a 10,000-run chaos campaign at full tilt.

``make campaign-scale`` is the fleet-scale target the persistent
pool unlocked: 1,000 seeds across the full ten-shape fault grid (10,000
seeded ABD runs — every one a complete build/fault/workload/check
cycle), followed by the full empirical Figure-1 sweep (measured ABD and
rate-optimal CAS at N=21, f=10), both dispatched through the pool with
one worker per CPU and auto-sized chunks.

The campaign's contract is asserted at scale — all 10,000 runs must be
safe, and every liveness stall diagnosed — and the wall clock plus
per-run cost land in ``benchmarks/results/BENCH_campaign_scale.json``.
The record is informational: no test or gate reads it, and timing
claims come from perfbench (``BENCHMARK.json``).

The cache is deliberately bypassed: this bench *measures* execution,
so a warm cache would invalidate the number it exists to record.

``python -m benchmarks.bench_campaign_scale [seeds]`` — the optional
argument scales the campaign down for smoke runs (default 1000 seeds =
10,000 runs).
"""

import sys
import time

from repro.analysis.empirical import empirical_figure1
from repro.faults.campaign import FAULT_SHAPES, run_campaign
from repro.parallel import resolve_jobs, shutdown_pool

from benchmarks.common import write_perf_record

#: Seeds of the full-scale campaign; x10 fault shapes = runs.
DEFAULT_SEEDS = 1000

#: The empirical Figure-1 grid (matches benchmarks/bench_empirical_figure1).
FIGURE1_PARAMS = dict(n=21, f=10, nus=(1, 2, 4, 6, 8))


def run_campaign_scale(seeds: int = DEFAULT_SEEDS, jobs: int = 0) -> dict:
    """The 10k-run campaign + Figure-1 sweep; returns the record."""
    resolved_jobs = resolve_jobs(jobs)
    expected_runs = seeds * len(FAULT_SHAPES)
    print(
        f"campaign-scale: {seeds} seeds x {len(FAULT_SHAPES)} shapes = "
        f"{expected_runs} runs on {resolved_jobs} worker(s)"
    )
    done = 0

    def progress(line: str) -> None:
        nonlocal done
        done += 1
        if done % 1000 == 0:
            print(f"  {done}/{expected_runs} runs ({line})")

    start = time.perf_counter()
    report = run_campaign(
        algorithms=("abd",),
        n=5,
        f=1,
        value_bits=6,
        seeds=range(seeds),
        num_ops=4,
        jobs=jobs,
        cache=None,
        progress=progress,
    )
    campaign_wall = time.perf_counter() - start
    runs = len(report.results)
    assert runs == expected_runs, (runs, expected_runs)
    if not report.passed:
        for failure in report.failures():
            print(
                f"FAIL {failure.algorithm}/{failure.config.label()}: "
                f"{failure.verdict()}",
                file=sys.stderr,
            )
        raise AssertionError(
            f"{len(report.failures())} of {runs} runs broke the campaign "
            "contract at scale"
        )
    print(
        f"  campaign: {runs} runs in {campaign_wall:.1f}s "
        f"({campaign_wall / runs * 1e3:.2f} ms/run), all acceptable"
    )

    start = time.perf_counter()
    series = empirical_figure1(jobs=jobs, **FIGURE1_PARAMS)
    figure1_wall = time.perf_counter() - start
    points = len(series["measured_abd"]) + len(series["measured_cas"])
    print(f"  figure1: {points} measured points in {figure1_wall:.1f}s")

    return {
        "seeds": seeds,
        "runs": runs,
        "jobs": resolved_jobs,
        "wall_seconds": round(campaign_wall, 2),
        "per_run_ms": round(campaign_wall / runs * 1e3, 3),
        "passed": report.passed,
        "figure1_points": points,
        "figure1_wall_seconds": round(figure1_wall, 2),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seeds = int(argv[0]) if argv else DEFAULT_SEEDS
    path = write_perf_record("campaign_scale", run_campaign_scale(seeds=seeds))
    print(f"campaign_scale record written to {path}")
    shutdown_pool()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
