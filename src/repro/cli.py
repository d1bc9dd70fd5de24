"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure1``      print the Figure 1 table (optionally the ASCII plot)
``bounds``       evaluate every bound at one (N, f, nu) point
``crossover``    replication/erasure-coding crossover concurrency
``classify``     Section 7 regime classification of a coefficient g
``verify``       run an executable-proof experiment against an algorithm
``assumptions``  audit a write protocol against Theorem 6.5's assumptions
``demo``         build a register, run a tiny workload, check consistency
``chaos``        adversarial fault-injection campaign over all algorithms
``trace``        causal event traces: capture / export (Chrome) / slice
``replay``       re-execute a repro bundle and assert its recorded verdict
``shrink``       ddmin-minimize a repro bundle's fault timeline + workload
``metrics``      run an instrumented workload; print/export its telemetry
``profile``      per-phase step-count + wall-clock breakdown
``sweep``        Section 2 parameter sweeps over the standard grids

``chaos --analyze`` folds per-run telemetry into campaign analytics
(phase latency percentiles, storage envelopes vs the paper's bounds,
anomaly flags); ``--analytics PATH`` writes the ``repro.analytics/1``
JSON artifact.  ``trace capture`` runs a traced chaos workload and
writes a ``repro.trace/1`` artifact; ``trace export --format chrome``
converts it to Chrome trace-event JSON loadable in Perfetto /
``chrome://tracing``.

Parallelism and caching: ``chaos``, ``metrics`` and ``sweep`` accept
``--jobs`` (or the ``REPRO_JOBS`` environment variable) to fan
independent seeded runs over a worker pool — reports are byte-identical
at any job count.  ``chaos`` and ``sweep`` consult the content-addressed
run cache in ``benchmarks/.cache/`` (``--no-cache`` to bypass,
``--cache-dir`` to relocate); see ``docs/parallelism.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.figure1 import FIGURE1_HEADERS, figure1_rows, figure1_series
from repro.analysis.report import ascii_line_plot
from repro.consistency.atomicity import check_atomicity
from repro.consistency.regularity import check_regular
from repro.core.bounds import evaluate_bounds
from repro.core.comparison import crossover_active_writes
from repro.core.regimes import classify_storage_coefficient
from repro.lowerbound.assumptions import analyze_write_protocol
from repro.lowerbound.theorem41 import run_theorem41_experiment
from repro.lowerbound.theorem65 import run_theorem65_experiment
from repro.lowerbound.theorem_b1 import run_theorem_b1_experiment
from repro.registers.catalog import (
    ALGORITHM_NAMES,
    EXPERIMENT_POPULATION,
    MULTI_WRITER,
    build_client_system,
)
from repro.util.tables import format_table

#: name -> builder(n, f, value_bits) for single-writer experiment
#: drivers: one writer, one reader, CASGC at ``gc_depth=1``.
ALGORITHMS: Dict[str, Callable] = {
    name: partial(build_client_system, name, **EXPERIMENT_POPULATION)
    for name in ALGORITHM_NAMES
}

#: name -> builder(n, f, value_bits, num_writers) for Theorem 6.5: one
#: reader, CASGC at ``gc_depth=2``.
MULTI_WRITER_ALGORITHMS: Dict[str, Callable] = {
    name: partial(build_client_system, name, num_readers=1, gc_depth=2)
    for name in MULTI_WRITER
}


def _cmd_figure1(args: argparse.Namespace) -> int:
    print(format_table(FIGURE1_HEADERS, figure1_rows(args.n, args.f, args.nu_max), ".3f"))
    if args.plot:
        series = figure1_series(args.n, args.f, args.nu_max)
        xs = series.pop("nu")
        print()
        print(ascii_line_plot(xs, series, width=60, height=16,
                              title=f"normalized storage bounds, N={args.n}, f={args.f}"))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    values = evaluate_bounds(args.n, args.f, args.nu)
    rows = [(name, "-" if v is None else v) for name, v in values.as_dict().items()]
    print(format_table(("bound", "normalized total storage"), rows, ".4f"))
    print(f"\nbest lower bound: {values.best_lower():.4f}")
    print(f"best upper bound: {values.best_upper():.4f}")
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    nu = crossover_active_writes(args.n, args.f)
    print(
        f"erasure coding beats replication for nu < {nu}; "
        f"replication (f+1 = {args.f + 1}) wins from nu = {nu} on"
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    result = classify_storage_coefficient(args.n, args.f, args.nu, args.g)
    print(result.summary())
    for note in result.notes:
        print(f"  - {note}")
    return 1 if result.impossible else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.theorem == "b1":
        cert = run_theorem_b1_experiment(
            ALGORITHMS[args.algorithm], n=args.n, f=args.f,
            value_bits=args.value_bits, algorithm=args.algorithm,
        )
        headers = ("alg", "N", "f", "|V|", "observed bits", "rhs",
                   "injective", "holds")
    elif args.theorem == "41":
        cert = run_theorem41_experiment(
            ALGORITHMS[args.algorithm], n=args.n, f=args.f,
            value_bits=args.value_bits, algorithm=args.algorithm,
        )
        headers = ("alg", "N", "f", "|V|", "pairs", "lhs", "rhs",
                   "injective", "holds")
    else:  # "65"
        if args.algorithm not in MULTI_WRITER_ALGORITHMS:
            print(f"theorem 65 verification supports: "
                  f"{sorted(MULTI_WRITER_ALGORITHMS)}", file=sys.stderr)
            return 2
        cert = run_theorem65_experiment(
            MULTI_WRITER_ALGORITHMS[args.algorithm], n=args.n, f=args.f,
            nu=args.nu, value_bits=args.value_bits, algorithm=args.algorithm,
        )
        headers = ("alg", "N", "f", "nu", "|V|", "tuples", "observed",
                   "rhs", "info-complete", "holds")
    print(format_table(headers, [cert.as_row()], ".3f"))
    return 0 if cert.holds else 1


def _cmd_assumptions(args: argparse.Namespace) -> int:
    report = analyze_write_protocol(
        ALGORITHMS[args.algorithm], args.n, args.f, args.value_bits,
        algorithm=args.algorithm,
    )
    print(format_table(
        ("algorithm", "black-box", "phases", "value-dep kinds",
         "value-dep phases", "in Thm6.5 class"),
        [report.as_row()],
    ))
    return 0 if report.satisfies_theorem65 else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.verification.explore import explore_all_schedules

    if args.max_states < 1:
        print("error: --max-states must be >= 1 (a search that visits no "
              "state proves nothing)")
        return 3  # usage error, as for chaos

    def build():
        handle = ALGORITHMS[args.algorithm](args.n, args.f, args.value_bits)
        w = handle.world
        w.invoke_write(handle.writer_ids[0], 1)
        w.invoke_read(handle.reader_ids[0])
        return w

    result = explore_all_schedules(build, max_states=args.max_states)
    print(
        f"{args.algorithm} write||read, N={args.n}, f={args.f}: "
        f"{result.states_visited} states, "
        f"{result.executions_checked} distinct terminal states, "
        f"exhausted={result.exhausted}, "
        f"symmetry_order={result.symmetry_order}"
    )
    if result.violations:
        print(f"ATOMICITY VIOLATED in {len(result.violations)} execution(s)")
        if args.bundle:
            from repro.triage.bundle import bundle_from_exploration
            from repro.workload.script import OpDecision

            schedule, _history = result.counterexample()
            handle = ALGORITHMS[args.algorithm](args.n, args.f, args.value_bits)
            bundle = bundle_from_exploration(
                algorithm=args.algorithm,
                n=args.n,
                f=args.f,
                value_bits=args.value_bits,
                ops=[
                    OpDecision(0, handle.writer_ids[0], "write", 1),
                    OpDecision(0, handle.reader_ids[0], "read"),
                ],
                schedule=schedule,
                note="explore write||read counterexample",
            )
            bundle.write(args.bundle)
            print(f"counterexample bundle written to {args.bundle}")
        return 1
    print("atomic in every explored execution")
    return 0


def _cmd_communication(args: argparse.Namespace) -> int:
    from repro.analysis.communication import communication_table

    systems = {
        name: builder(args.n, args.f, args.value_bits)
        for name, builder in ALGORITHMS.items()
        if name in args.algorithms
    }
    rows = communication_table(systems)
    print(format_table(
        ("algorithm", "op", "messages", "value bits", "normalized"),
        rows,
        ".3f",
    ))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    handle = ALGORITHMS[args.algorithm](args.n, args.f, args.value_bits)
    for v in (1, 2, 3):
        handle.write(v % handle.value_space_size)
    value = handle.read().value
    if handle.algorithm in ("swmr-abd", "coded-swmr") and not handle.params.get(
        "read_write_back", False
    ):
        ok = check_regular(handle.world.operations).ok
        kind = "regular"
    else:
        ok = check_atomicity(handle.world.operations).ok
        kind = "atomic"
    print(
        f"{args.algorithm}: wrote 1,2,3; read() -> {value}; "
        f"{kind} history: {'ok' if ok else 'VIOLATED'}; "
        f"normalized total storage {handle.normalized_total_storage():.3f}"
    )
    return 0 if ok and value == 3 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.faults.campaign import (
        campaign_journal_meta,
        run_campaign,
        write_json_report,
        write_report,
    )
    from repro.parallel.cache import RunCache
    from repro.parallel.journal import CampaignJournal
    from repro.parallel.pool import resolve_task_timeout

    if args.seeds < 1:
        print("error: --seeds must be >= 1 (a zero-run campaign proves nothing)")
        return 3  # usage error (2 is reserved for safety violations)
    if args.ops < 1:
        print("error: --ops must be >= 1 (a run that invokes nothing proves "
              "nothing)")
        return 3
    if args.byzantine < 0:
        print("error: --byzantine must be >= 0")
        return 3
    if args.max_retries < 1:
        print("error: --max-retries must be >= 1 (every run executes at "
              "least once)")
        return 3
    if args.journal and args.resume and args.journal != args.resume:
        print("error: --journal and --resume name different files; a resumed "
              "campaign keeps appending to the journal it resumes from")
        return 3
    progress = (lambda line: print(f"  {line}")) if args.verbose else None
    cache = None if args.no_cache else RunCache(args.cache_dir)
    # Analytics needs per-run telemetry; triage bundles want trace tails.
    telemetry = args.analyze or bool(args.analytics) or args.triage
    task_timeout = resolve_task_timeout(args.task_timeout)
    journal = None
    journal_path = args.resume or args.journal
    if journal_path:
        meta = campaign_journal_meta(
            algorithms=args.algorithms,
            n=args.n,
            f=args.f,
            value_bits=args.value_bits,
            seeds=list(range(args.seeds)),
            num_ops=args.ops,
            max_ticks=args.max_ticks,
            byzantine=args.byzantine,
            telemetry=telemetry,
            task_timeout=task_timeout,
            max_retries=args.max_retries,
        )
        try:
            if args.resume:
                journal = CampaignJournal.resume(journal_path, meta)
                print(
                    f"resume: loaded {journal.loaded} completed run(s) "
                    f"from {journal_path}"
                )
                if journal.fingerprint_drift:
                    print(
                        "resume: the journal was written by a different "
                        "source tree; stale entries will re-execute"
                    )
            else:
                journal = CampaignJournal.create(journal_path, meta)
        except ConfigurationError as exc:
            print(f"error: {exc}")
            return 3
    try:
        report = run_campaign(
            algorithms=args.algorithms,
            n=args.n,
            f=args.f,
            value_bits=args.value_bits,
            seeds=range(args.seeds),
            num_ops=args.ops,
            max_ticks=args.max_ticks,
            progress=progress,
            jobs=args.jobs,
            chunk=args.chunk,
            cache=cache,
            fail_fast=args.fail_fast,
            byzantine=args.byzantine,
            telemetry=telemetry,
            task_timeout=task_timeout,
            max_retries=args.max_retries,
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    print(report.format())
    if args.analyze or args.analytics:
        from repro.obs.analytics import (
            analyze_campaign, format_analytics, write_analytics,
        )

        analytics = analyze_campaign(report)
        if args.analyze:
            print()
            print(format_analytics(analytics))
        if args.analytics:
            write_analytics(analytics, args.analytics)
            print(f"\nanalytics written to {args.analytics}")
    if cache is not None:
        print(f"\n{cache.stats_line()}")
    if args.out:
        write_report(report, args.out)
        print(f"\nreport written to {args.out}")
    if args.json:
        write_json_report(report, args.json)
        print(f"JSON summary written to {args.json}")
    failures = report.failures()
    if failures and args.triage:
        from repro.triage.corpus import bundle_campaign_failures

        paths = bundle_campaign_failures(
            report,
            args.triage_dir,
            max_ticks=args.max_ticks,
            shrink=args.triage_shrink,
            jobs=args.jobs,
            cache=cache,
            chunk=args.chunk,
        )
        for path in paths:
            print(f"triage bundle written to {path}")
    if report.interrupted:
        # Partial artifacts were still written above; tell the human how
        # to finish the campaign instead of pretending it passed/failed.
        if journal is not None:
            print(f"\ninterrupted: resume with --resume {journal_path}")
        else:
            print("\ninterrupted: re-run with --journal PATH to make the "
                  "campaign resumable")
        return 130
    if not failures:
        return 0
    # Safety violations outrank liveness-only failures, which outrank
    # quarantine-only campaigns, so CI can triage from the exit code
    # without parsing the report.
    if any(not r.safety_ok for r in failures):
        return 2
    if any(not r.quarantined for r in failures):
        return 1
    return 4


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.parallel.cache import RunCache
    from repro.triage.bundle import ReproBundle
    from repro.triage.replay import execute_bundle

    bundle = ReproBundle.load(args.bundle)
    cache = None if args.no_cache else RunCache(args.cache_dir)
    outcome = execute_bundle(bundle, cache=cache)
    print(outcome.format())
    return 0 if outcome.matches else 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    from repro.parallel.cache import RunCache
    from repro.triage.bundle import ReproBundle
    from repro.triage.shrink import shrink_bundle, write_shrink_log

    bundle = ReproBundle.load(args.bundle)
    cache = None if args.no_cache else RunCache(args.cache_dir)
    result = shrink_bundle(
        bundle, jobs=args.jobs, cache=cache, chunk=args.chunk
    )
    print(result.format())
    out = args.out or (
        args.bundle[: -len(".json")] + ".min.json"
        if args.bundle.endswith(".json")
        else args.bundle + ".min.json"
    )
    result.minimized.write(out)
    print(f"minimized bundle written to {out}")
    if args.log:
        write_shrink_log(result, args.log)
        print(f"shrink log written to {args.log}")
    return 0


def _seeded_path(path: str, seed: int) -> str:
    """``trace.json`` -> ``trace_s<seed>.json`` for multi-seed captures."""
    if path.endswith(".json"):
        return f"{path[:-len('.json')]}_s{seed}.json"
    return f"{path}_s{seed}"


def _chrome_path(path: str) -> str:
    if path.endswith(".json"):
        return f"{path[:-len('.json')]}.chrome.json"
    return f"{path}.chrome.json"


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.tracing import (
        capture_trace_task,
        chrome_trace_dict,
        load_trace,
        slice_document,
        write_trace,
    )

    if args.trace_cmd == "capture":
        from repro.faults.campaign import FAULT_SHAPES, generate_fault_configs
        from repro.parallel.pool import run_tasks

        shape_names = [name for name, _ in FAULT_SHAPES]
        if args.shape not in shape_names:
            print(
                f"error: unknown fault shape {args.shape!r} "
                f"(choose from: {', '.join(shape_names)})"
            )
            return 3
        if args.seeds < 1:
            print("error: --seeds must be >= 1")
            return 3
        seeds = range(args.seed, args.seed + args.seeds)
        configs = [
            c
            for c in generate_fault_configs(args.f, list(seeds))
            if c.name == args.shape
        ]
        payloads = [
            {
                "kind": "trace-capture",
                "algorithm": args.algorithm,
                "config": c.to_cache_dict(),
                "n": args.n,
                "f": args.f,
                "value_bits": args.value_bits,
                "num_ops": args.ops,
                "max_ticks": args.max_ticks,
            }
            for c in configs
        ]
        docs = run_tasks(
            capture_trace_task, payloads, jobs=args.jobs, chunk=args.chunk
        )
        for config, doc in zip(configs, docs):
            path = (
                args.out
                if len(configs) == 1
                else _seeded_path(args.out, config.seed)
            )
            write_trace(doc, path)
            print(
                f"trace written to {path} "
                f"({len(doc['events'])} events, {len(doc['spans'])} spans, "
                f"verdict {doc['meta']['verdict']})"
            )
            if args.chrome:
                chrome = _chrome_path(path)
                write_trace(chrome_trace_dict(doc), chrome)
                print(f"chrome trace written to {chrome}")
        return 0

    doc = load_trace(args.trace)
    if args.trace_cmd == "slice":
        out_doc = slice_document(doc, args.around, radius=args.radius)
    elif args.format == "chrome":
        out_doc = chrome_trace_dict(doc)
    else:
        out_doc = doc
    if args.out:
        write_trace(out_doc, args.out)
        print(f"written to {args.out}")
    else:
        print(json.dumps(out_doc, sort_keys=True, indent=2))
    return 0


def _metrics_payload(args: argparse.Namespace, seed: int) -> dict:
    """The picklable description of one seeded ``repro metrics`` run."""
    return {
        "algorithm": args.algorithm,
        "n": args.n,
        "f": args.f,
        "value_bits": args.value_bits,
        "writers": args.writers,
        "readers": args.readers,
        "ops": args.ops,
        "read_fraction": args.read_fraction,
        "seed": seed,
    }


def _observed_run(payload: dict):
    """Run one seeded random workload with a ``SimObserver`` attached.

    Returns the observer and the run's summary row: steps, the observed
    ν (peak concurrent writes, at least 1) and the peak storage the
    observer sampled.  The observer only reads state, so the schedule
    is the uninstrumented run's.
    """
    from repro.obs.analytics import max_concurrent_writes
    from repro.obs.recorder import SimObserver
    from repro.workload.generator import run_random_workload

    handle = build_client_system(
        payload["algorithm"], payload["n"], payload["f"],
        payload["value_bits"], num_writers=payload["writers"],
        num_readers=payload["readers"], gc_depth=1,
    )
    observer = handle.world.obs = SimObserver()
    result = run_random_workload(
        handle,
        payload["ops"],
        seed=payload["seed"],
        read_fraction=payload["read_fraction"],
    )
    total = observer.registry.series.get("storage.total_bits")
    max_server = observer.registry.series.get("storage.max_server_bits")
    return observer, {
        "seed": payload["seed"],
        "steps": result.steps,
        "nu_observed": max(1, max_concurrent_writes(handle.world.operations)),
        "peak_total_bits": total.max_value() if total else None,
        "peak_max_server_bits": max_server.max_value() if max_server else None,
    }


def _metrics_task(payload: dict) -> dict:
    """One seeded instrumented run; the ``metrics --runs`` pool task.

    Returns the run's summary row plus the worker's full
    :class:`~repro.obs.registry.MetricsRegistry` (picklable), which the
    parent merges in seed order via the registry ``merge`` API.
    """
    observer, row = _observed_run(payload)
    return {**row, "registry": observer.registry}


def _metrics_batch(args: argparse.Namespace) -> int:
    """``repro metrics --runs K``: K seeded runs, merged registry report."""
    import json as _json

    from repro.obs.registry import MetricsRegistry
    from repro.obs.report import format_bound_rows, storage_bound_rows
    from repro.parallel.pool import run_tasks

    payloads = [
        _metrics_payload(args, seed)
        for seed in range(args.seed, args.seed + args.runs)
    ]
    results = run_tasks(
        _metrics_task, payloads, jobs=args.jobs, chunk=args.chunk
    )
    # Fold in seed order, so the merged snapshot is the same at any --jobs.
    merged = MetricsRegistry()
    for r in results:
        merged.merge(r["registry"])
    nu = max(r["nu_observed"] for r in results)
    totals = [r["peak_total_bits"] for r in results if r["peak_total_bits"] is not None]
    maxes = [
        r["peak_max_server_bits"]
        for r in results
        if r["peak_max_server_bits"] is not None
    ]
    bound_rows = storage_bound_rows(
        args.n, args.f, args.value_bits, nu,
        max(totals) if totals else None,
        max(maxes) if maxes else None,
    )

    meta = {
        "algorithm": args.algorithm, "n": args.n, "f": args.f,
        "value_bits": args.value_bits, "num_ops": args.ops,
        "runs": args.runs, "first_seed": args.seed,
        "nu_observed": nu,
    }
    meta_line = "  ".join(f"{k}={meta[k]}" for k in sorted(meta))
    print(f"metrics batch  [{meta_line}]")
    run_rows = [
        (
            r["seed"], r["steps"], r["nu_observed"],
            r["peak_total_bits"], r["peak_max_server_bits"],
        )
        for r in results
    ]
    print("\nper-run summary")
    print(format_table(
        ("seed", "steps", "nu", "peak_total_bits", "peak_max_server_bits"),
        run_rows, ".1f", indent="  ",
    ))
    snapshot = merged.snapshot()
    print("\nmerged counters (all runs)")
    print(format_table(
        ("name", "value"), list(snapshot["counters"].items()), indent="  ",
    ))
    if snapshot["histograms"]:
        print("\nmerged histograms")
        print(format_table(
            ("name", "count", "mean", "p50", "p99", "max"),
            [
                (k, h["count"], h["mean"], h["p50"], h["p99"], h["max"])
                for k, h in snapshot["histograms"].items()
            ],
            ".2f", indent="  ",
        ))
    print("\nobserved peak storage vs lower bounds (bits, worst run)")
    print(format_bound_rows(bound_rows))
    if args.json:
        doc = {
            "schema": "repro.metrics-batch/1",
            "meta": meta,
            "runs": [
                {k: v for k, v in r.items() if k != "registry"}
                for r in results
            ],
            "merged": snapshot,
            "bounds": bound_rows,
        }
        with open(args.json, "w") as fh:
            _json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"\nJSON batch report written to {args.json}")
    violated = any(row["status"] == "VIOLATED" for row in bound_rows)
    return 1 if violated else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.report import MetricsReport, storage_bound_rows

    if args.runs > 1:
        return _metrics_batch(args)
    observer, row = _observed_run(_metrics_payload(args, args.seed))
    meta = {
        "algorithm": args.algorithm,
        "n": args.n,
        "f": args.f,
        "value_bits": args.value_bits,
        "num_ops": args.ops,
        "seed": args.seed,
        "steps": row["steps"],
        "nu_observed": row["nu_observed"],
    }
    bound_rows = storage_bound_rows(
        args.n, args.f, args.value_bits, row["nu_observed"],
        row["peak_total_bits"], row["peak_max_server_bits"],
    )
    report = MetricsReport(meta, observer, bound_rows=bound_rows)
    print(report.format())
    if args.json:
        report.write_json(args.json)
        print(f"\nJSON report written to {args.json}")
    if args.jsonl:
        report.write_series_jsonl(args.jsonl)
        print(f"time-series JSONL written to {args.jsonl}")
    violated = any(
        row["status"] == "VIOLATED" for row in (report.bound_rows or [])
    )
    return 1 if violated else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import (
        check_standard_sweeps,
        format_standard_sweeps,
        run_standard_sweeps,
    )
    from repro.parallel.cache import RunCache

    cache = None if args.no_cache else RunCache(args.cache_dir)
    results = run_standard_sweeps(
        jobs=args.jobs, cache=cache, chunk=args.chunk
    )
    text = format_standard_sweeps(results)
    print(text)
    ok, reason = check_standard_sweeps(results)
    if cache is not None:
        print(f"\n{cache.stats_line()}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text.rstrip() + "\n")
        print(f"sweep tables written to {args.out}")
    if not ok:
        print(f"SHAPE CHECK FAILED: {reason}")
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro.obs.recorder import SimObserver
    from repro.workload.generator import run_random_workload

    handle = build_client_system(
        args.algorithm, args.n, args.f, args.value_bits,
        num_writers=args.writers, num_readers=args.readers, gc_depth=1,
    )
    observer = handle.world.obs = SimObserver(record_wall=True)
    start = time.perf_counter()
    result = run_random_workload(
        handle, args.ops, seed=args.seed, read_fraction=args.read_fraction
    )
    wall = time.perf_counter() - start
    print(
        f"{args.algorithm}: {args.ops} ops, {result.steps} steps, "
        f"{wall * 1e3:.1f} ms wall "
        f"({result.steps / max(wall, 1e-9):.0f} steps/s)"
    )
    print()
    # Per-phase step counts, plus wall clock where the spans recorded it.
    spans = observer.spans
    wall_stats = spans.wall_stats()
    rows = []
    for name, s in spans.stats().items():
        w = wall_stats.get(name)
        rows.append((
            name, s["count"], s["total_steps"], s["mean_steps"],
            s["max_steps"],
            f"{1e3 * w['total_seconds']:.3f}" if w else "-",
            f"{1e3 * w['mean_seconds']:.3f}" if w else "-",
        ))
    print(format_table(
        ["phase", "count", "steps", "mean", "max", "wall_ms", "wall_ms/op"],
        rows, float_fmt=".2f", indent="  ",
    ))
    open_spans = spans.open_spans()
    if open_spans:
        print(f"\nWARNING: {len(open_spans)} span(s) never closed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Storage-cost lower bounds for shared memory emulation "
        "(Cadambe-Wang-Lynch, PODC 2016) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_nf(p, n=21, f=10):
        p.add_argument("-n", "--n", type=int, default=n, help="number of servers")
        p.add_argument("-f", "--f", type=int, default=f, help="failure budget")

    def add_parallel_opts(p):
        p.add_argument(
            "--jobs", type=int, default=None,
            help="worker processes for independent runs (default: "
            "$REPRO_JOBS or 1; 0 or negative = one per CPU); results "
            "are byte-identical at any job count",
        )
        p.add_argument(
            "--chunk", type=int, default=None,
            help="tasks per dispatch chunk on the worker pool (default: "
            "$REPRO_CHUNK or auto ~4 chunks/worker; 0 = auto); chunking "
            "never affects output, only IPC cost",
        )

    p = sub.add_parser("figure1", help="print the Figure 1 table")
    add_nf(p)
    p.add_argument("--nu-max", type=int, default=16)
    p.add_argument("--plot", action="store_true", help="ASCII plot too")
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("bounds", help="evaluate all bounds at (N, f, nu)")
    add_nf(p)
    p.add_argument("--nu", type=int, default=1)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("crossover", help="replication/EC crossover")
    add_nf(p)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("classify", help="Section 7 regime classification")
    add_nf(p)
    p.add_argument("--nu", type=int, default=1)
    p.add_argument("--g", type=float, required=True,
                   help="normalized storage coefficient to classify")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run an executable-proof experiment")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="swmr-abd")
    p.add_argument("--theorem", choices=["b1", "41", "65"], default="b1")
    add_nf(p, n=5, f=2)
    p.add_argument("--nu", type=int, default=2, help="for --theorem 65")
    p.add_argument("--value-bits", type=int, default=3)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("assumptions", help="audit Theorem 6.5 assumptions")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="cas")
    add_nf(p, n=5, f=1)
    p.add_argument("--value-bits", type=int, default=8)
    p.set_defaults(func=_cmd_assumptions)

    p = sub.add_parser("demo", help="tiny write/read/check workload")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="abd")
    add_nf(p, n=5, f=1)
    p.add_argument("--value-bits", type=int, default=8)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser(
        "explore", help="exhaustively model-check write||read schedules"
    )
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="swmr-abd")
    add_nf(p, n=3, f=1)
    p.add_argument("--value-bits", type=int, default=2)
    p.add_argument("--max-states", type=int, default=100_000)
    p.add_argument("--bundle", default="",
                   help="on violation, write the first counterexample as a "
                   "repro bundle to this path")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser(
        "chaos",
        help="adversarial fault-injection campaign over all algorithms",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "parallelism resolution order (same for every parallel verb):\n"
            "  1. the --jobs flag, when given;\n"
            "  2. else the REPRO_JOBS environment variable;\n"
            "  3. else 1 (serial, in-process — no pool at all).\n"
            "0 or any negative value — from the flag OR the env var — "
            "means one worker per CPU;\n"
            "a malformed REPRO_JOBS is ignored (serial), never fatal.\n"
            "--chunk / REPRO_CHUNK resolve the same way (0 = auto-size; "
            "a malformed REPRO_CHUNK\nmeans auto, never fatal); chunk size "
            "changes IPC cost only — reports are\nbyte-identical at any "
            "--jobs and any --chunk.\n"
            "--task-timeout / REPRO_TASK_TIMEOUT resolve the same way "
            "(0, negative, or\nmalformed = disabled); timed-out runs are "
            "retried with backoff, then quarantined\nafter --max-retries "
            "timed-out executions.  Retries and chunking never change\n"
            "result bytes.\n"
            "\n"
            "exit codes:\n"
            "  0    every run acceptable\n"
            "  1    liveness failure(s) (no safety violation)\n"
            "  2    safety violation(s)\n"
            "  3    usage error (bad flags, unresumable journal)\n"
            "  4    quarantined run(s) only — nothing failed, but runs "
            "timed out unproven\n"
            "  130  interrupted (Ctrl-C); partial artifacts written, "
            "journal resumable"
        ),
    )
    p.add_argument(
        "--algorithms", nargs="+", choices=["abd", "cas", "casgc"],
        default=["abd", "cas", "casgc"],
    )
    add_nf(p, n=5, f=1)
    p.add_argument("--value-bits", type=int, default=6)
    p.add_argument("--seeds", type=int, default=3,
                   help="seeds per fault shape (>=2 gives >=20 configs/algorithm)")
    p.add_argument("--ops", type=int, default=10, help="operations per run")
    p.add_argument("--max-ticks", type=int, default=60_000)
    p.add_argument("--byzantine", type=int, default=0, metavar="F_B",
                   help="append the Byzantine fault band with F_B corrupt "
                   "servers per run (protocols defend with the same budget)")
    p.add_argument("--out", default="benchmarks/results/chaos_campaign.txt",
                   help="report path ('' to skip writing)")
    p.add_argument("--json", default="",
                   help="also write the campaign summary as JSON to this path")
    p.add_argument("--analyze", action="store_true",
                   help="instrument every run and print campaign analytics "
                   "(phase latency percentiles, storage envelopes vs bounds, "
                   "anomaly flags)")
    p.add_argument("--analytics", default="", metavar="PATH",
                   help="also write the repro.analytics/1 JSON artifact here "
                   "(implies run instrumentation)")
    p.add_argument("--verbose", action="store_true", help="per-run progress")
    p.add_argument("--fail-fast", action="store_true",
                   help="stop at the first unacceptable run, dispatching "
                   "no further work (the report then holds the runs up to "
                   "the failure)")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-run wall-clock timeout (default: "
                   "$REPRO_TASK_TIMEOUT or disabled); hung runs are "
                   "killed, retried with backoff, and quarantined after "
                   "--max-retries timed-out executions")
    p.add_argument("--max-retries", type=int, default=2,
                   help="timed-out executions per run before quarantine "
                   "(default 2: the first attempt plus one retry)")
    p.add_argument("--journal", default="", metavar="PATH",
                   help="checkpoint every completed run to this "
                   "repro.journal/1 file (conventionally under "
                   "benchmarks/.journal/) so a killed campaign can "
                   "--resume")
    p.add_argument("--resume", default="", metavar="PATH",
                   help="resume a killed campaign from its journal: "
                   "completed runs are loaded, only missing runs execute, "
                   "and the final report is byte-identical to an "
                   "uninterrupted campaign")
    p.add_argument("--triage", action="store_true",
                   help="write a repro bundle for every failure")
    p.add_argument("--triage-shrink", action="store_true",
                   help="with --triage: ddmin-minimize each bundle and write "
                   "a .shrink.log beside it")
    p.add_argument("--triage-dir", default="benchmarks/results/triage",
                   help="directory for auto-emitted failure bundles")
    add_parallel_opts(p)
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the run cache (always re-execute)")
    p.add_argument("--cache-dir", default="benchmarks/.cache",
                   help="content-addressed run cache directory")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "trace",
        help="causal event traces: capture, export to Chrome format, slice",
    )
    trace_sub = p.add_subparsers(dest="trace_cmd", required=True)

    tp = trace_sub.add_parser(
        "capture",
        help="run a traced chaos workload; write the repro.trace/1 artifact",
    )
    tp.add_argument("--algorithm", choices=["abd", "cas", "casgc"],
                    default="abd")
    add_nf(tp, n=5, f=1)
    tp.add_argument("--value-bits", type=int, default=6)
    tp.add_argument("--shape", default="clean",
                    help="fault shape name (a FAULT_SHAPES entry, e.g. "
                    "clean, drops, kitchen-sink)")
    tp.add_argument("--seed", type=int, default=0, help="first seed")
    tp.add_argument("--seeds", type=int, default=1,
                    help="seed count (one trace artifact per seed)")
    tp.add_argument("--ops", type=int, default=10, help="operations per run")
    tp.add_argument("--max-ticks", type=int, default=60_000)
    tp.add_argument("--out", default="benchmarks/results/trace.json",
                    help="trace path (multi-seed captures append _s<seed>)")
    tp.add_argument("--chrome", action="store_true",
                    help="also write the Chrome trace-event conversion "
                    "(<out>.chrome.json) beside each capture")
    add_parallel_opts(tp)
    tp.set_defaults(func=_cmd_trace)

    tp = trace_sub.add_parser(
        "export", help="convert a repro.trace/1 artifact for viewers"
    )
    tp.add_argument("trace", help="path to a repro.trace/1 JSON artifact")
    tp.add_argument("--format", choices=["chrome", "json"], default="chrome",
                    help="chrome = trace-event JSON for Perfetto / "
                    "chrome://tracing; json = the validated document itself")
    tp.add_argument("--out", default="",
                    help="output path (default: print to stdout)")
    tp.set_defaults(func=_cmd_trace)

    tp = trace_sub.add_parser(
        "slice", help="narrow a trace to a window of steps"
    )
    tp.add_argument("trace", help="path to a repro.trace/1 JSON artifact")
    tp.add_argument("--around", type=int, required=True,
                    help="center step of the window")
    tp.add_argument("--radius", type=int, default=50,
                    help="window half-width in steps")
    tp.add_argument("--out", default="",
                    help="output path (default: print to stdout)")
    tp.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "replay",
        help="re-execute a repro bundle and assert its recorded verdict",
    )
    p.add_argument("bundle", help="path to a repro.bundle/1 JSON artifact")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the run cache (always re-execute)")
    p.add_argument("--cache-dir", default="benchmarks/.cache",
                   help="content-addressed run cache directory")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "shrink",
        help="ddmin-minimize a repro bundle, preserving its failure verdict",
    )
    p.add_argument("bundle", help="path to a repro.bundle/1 JSON artifact")
    p.add_argument("--out", default="",
                   help="minimized bundle path (default: <bundle>.min.json)")
    p.add_argument("--log", default="",
                   help="also write the human-readable shrink log here")
    add_parallel_opts(p)
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the run cache (always re-execute)")
    p.add_argument("--cache-dir", default="benchmarks/.cache",
                   help="content-addressed run cache directory")
    p.set_defaults(func=_cmd_shrink)

    def add_workload_opts(p):
        p.add_argument("--ops", type=int, default=10, help="operations to invoke")
        p.add_argument("--seed", type=int, default=0, help="workload seed")
        p.add_argument("--read-fraction", type=float, default=0.5)
        p.add_argument("--writers", type=int, default=2,
                       help="writer clients (multi-writer algorithms)")
        p.add_argument("--readers", type=int, default=2, help="reader clients")

    p = sub.add_parser(
        "metrics",
        help="run an instrumented workload and print/export its telemetry",
    )
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="cas")
    add_nf(p, n=5, f=1)
    p.add_argument("--value-bits", type=int, default=8)
    add_workload_opts(p)
    p.add_argument("--json", default="", help="write the full JSON report here")
    p.add_argument("--jsonl", default="",
                   help="write per-step time series as JSON Lines here")
    p.add_argument("--runs", type=int, default=1,
                   help="seeded runs (seeds seed..seed+runs-1); with runs > 1 "
                   "the per-worker registries are merged into one batch report")
    add_parallel_opts(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "profile",
        help="per-phase step-count and wall-clock breakdown for an algorithm",
    )
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="cas")
    add_nf(p, n=5, f=1)
    p.add_argument("--value-bits", type=int, default=8)
    add_workload_opts(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "sweep",
        help="Section 2 parameter sweeps over the standard grids",
    )
    add_parallel_opts(p)
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the run cache (always recompute)")
    p.add_argument("--cache-dir", default="benchmarks/.cache",
                   help="content-addressed run cache directory")
    p.add_argument("--out", default="",
                   help="also write the sweep tables to this path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("communication", help="per-op message/bit costs")
    p.add_argument(
        "--algorithms", nargs="+", choices=sorted(ALGORITHMS),
        default=["abd", "cas"],
    )
    add_nf(p, n=5, f=1)
    p.add_argument("--value-bits", type=int, default=12)
    p.set_defaults(func=_cmd_communication)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
