"""End-to-end and per-layer benchmark of the repro harness.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload chaos --seed 1 --seconds 10 --trace 0

Workloads are described in ``perfbench/workloads.py``.  A run

1. measures set-up: a fresh interpreter imports the package and builds
   the workload's inputs, ``SETUP_REPS`` times; the median is reported;
2. sets up in-process and runs one untimed warm-up pass;
3. runs passes for ``--seconds`` seconds, timing each;
4. checks the outputs (every pass checks its own results; afterwards
   the first pass is re-run and must reproduce exactly);
5. prints one JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics: median pass latency,
runs per second and set-up time.  ``--trace 1`` runs the same loop
with spans around every layer's entry points (``perfbench/layers.py``)
and reports per-pass self time and work counts per layer instead; its
timings include the spans' own cost.

Host speed.  On a shared machine the speed of a core drifts by a third
and more over seconds, as neighbours come and go.  So every timed
interval is bracketed by fixed calibration loops and scaled to the
reference host (``perfbench/hostspeed.py``): a reported millisecond is
a reference millisecond.  The raw medians are printed on the summary
line.

Nothing is cached between runs: every run computes afresh, and the
package's memo caches are cleared before each pass so that a pass
costs what a fresh process would pay.  A full garbage collection
precedes each pass, outside the timed interval.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh-interpreter set-ups per run; the median is reported.
SETUP_REPS = 7

#: Environment knobs of the package that would change what is measured.
PACKAGE_ENV = (
    "REPRO_JOBS",
    "REPRO_CHUNK",
    "REPRO_TASK_TIMEOUT",
    "REPRO_CODE_FINGERPRINT",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up and exit (timed by the parent run)",
    )
    return parser.parse_args(argv)


def clear_memo_caches() -> None:
    """Clear every ``functools`` cache the package holds."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def measure_setup(args, calibration) -> tuple:
    """Median ``(raw, reference)`` seconds of a fresh interpreter
    setting the workload up."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    # No ``timeout``: with one, ``subprocess`` polls the child in sleeps
    # of up to 50 ms, and the measured time snaps to that grid.
    samples = [
        calibration.timed(
            lambda: subprocess.run(
                command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL
            )
        )
        for _ in range(SETUP_REPS)
    ]
    return (
        statistics.median(s[0] for s in samples),
        statistics.median(s[1] for s in samples),
    )


def run(args, workload) -> dict:
    calibration = Calibration()
    # Move the harness's own objects (the calibration mesh above all)
    # out of the collector's reach, so they do not slow the program's
    # collections.
    gc.collect()
    gc.freeze()
    setup = None if args.trace else measure_setup(args, calibration)
    workload.setup()
    clear_memo_caches()
    workload.run_pass(0)  # warm-up, untimed; also the check's reference

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    raw, reference = [], []
    attempted = failed = 0
    index = 1
    try:
        began = time.perf_counter()
        while time.perf_counter() - began < args.seconds:
            clear_memo_caches()
            gc.collect()  # every pass starts from the same heap state
            raw_s, reference_s, (runs, bad) = calibration.timed(
                lambda: workload.run_pass(index)
            )
            raw.append(raw_s)
            reference.append(reference_s)
            attempted += runs
            failed += bad
            index += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = workload.check()
    for problem in problems:
        print(problem, file=sys.stderr)

    pass_ms = statistics.median(reference) * 1e3
    if tracer is None:
        metrics = {
            "pass_ms": (pass_ms, "ms"),
            "runs_per_s": (attempted / sum(reference), "1/s"),
            "setup_s": (setup[1], "s"),
        }
    else:
        # One speed factor for the whole run scales the layer times.
        scale = sum(reference) / sum(raw)
        metrics = {
            name: (value * scale if unit == "ms" else value, unit)
            for name, (value, unit) in tracer.per_pass(len(raw), sum(raw)).items()
        }
        metrics["traced_pass_ms"] = (pass_ms, "ms")
    summary = (
        f"{args.workload}: {len(raw)} passes, {attempted} runs, {failed} failed, "
        f"{len(problems)} check problem(s); raw median pass "
        f"{statistics.median(raw) * 1e3:.1f} ms"
    )
    if setup is not None:
        summary += f", raw setup {setup[0]:.3f} s"
    print(summary)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for name in PACKAGE_ENV:
        os.environ.pop(name, None)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(known: {', '.join(sorted(WORKLOADS))})",
            file=sys.stderr,
        )
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.setup_only:
            workload.setup()
            return 0
        result = run(args, workload)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
