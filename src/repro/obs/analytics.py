"""Campaign analytics: fold per-run telemetry into fleet-wide views.

A chaos campaign run with telemetry enabled (``repro chaos --analyze``)
attaches a plain-JSON telemetry dict to every
:class:`~repro.faults.campaign.ChaosRunResult`: per-phase span
durations, the storage-over-time series, counters, and the observed
write concurrency.  This module rolls those up across the whole
campaign into a ``repro.analytics/1`` document:

* **per-phase latency percentiles** (p50/p90/p99, nearest-rank, exact)
  for every protocol phase of every algorithm;
* **storage-over-time envelopes** — the per-step maximum across runs —
  compared against the paper's lower bounds (Theorems B.1/4.1/5.1/6.5
  via :func:`~repro.obs.report.storage_bound_rows`), the BKS integrated
  bound, and an algorithm-specific *upper* envelope prediction
  (:func:`storage_envelope_bits`);
* **anomaly flags**: runs whose observed storage exceeds the predicted
  envelope, watchdog-diagnosed stalls, and byzantine-masked runs.

Everything here is a pure function of run results, so the document is
byte-identical at any ``--jobs`` — the same determinism contract as
``repro.trace/1`` and ``repro.chaos/1``.

Import discipline: this module sits inside the obs layer and imports
only the registry/spans/report/bounds machinery, never the simulator or
the campaign — ``repro.faults.campaign`` imports *us*.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import bounds as _bounds
from repro.errors import BoundError
from repro.obs.registry import percentile
from repro.obs.report import storage_bound_rows
from repro.util.tables import format_table

#: Schema tag of the campaign-analytics artifact.
ANALYTICS_SCHEMA = "repro.analytics/1"

#: Maximum points kept per run in the telemetry storage series (and per
#: algorithm in the folded envelope) — enough shape for the envelope
#: comparison without bloating cache entries.
SERIES_POINTS = 160
ENVELOPE_BUCKETS = 64


def max_concurrent_writes(operations) -> int:
    """Peak number of overlapping write operations (the observed ν).

    ``operations`` are :class:`~repro.sim.events.OperationRecord`-shaped
    objects; an incomplete write (no response step) stays active to the
    end of the execution, matching the paper's "active at point P".

    Contract: the invoke and response steps of distinct operations
    never coincide, because every action of a World gets its own step.
    On such tie-free intervals the peak is the largest number of writes
    invoked at or before some point and not yet responded at it.  This
    is the one observed ν: chaos telemetry and ``repro metrics`` both
    report it.
    """
    intervals: List[Tuple[int, Optional[int]]] = []
    for op in operations:
        if op.kind != "write" or op.invoke_step is None:
            continue
        intervals.append((op.invoke_step, op.response_step))
    if not intervals:
        return 0
    starts = sorted(s for s, _ in intervals)
    ends = sorted(e for _, e in intervals if e is not None)
    peak = j = 0
    for i, start in enumerate(starts):
        while j < len(ends) and ends[j] < start:
            j += 1
        active = (i + 1) - j
        if active > peak:
            peak = active
    return peak


def downsample_series(points: Sequence[Tuple[int, float]],
                      limit: int = SERIES_POINTS) -> List[List[float]]:
    """Thin a (step, value) series to at most ``limit`` points.

    Keeps every ``ceil(n/limit)``-th sample plus the final one, so the
    selection is a deterministic function of the input alone.
    """
    pts = [[int(s), float(v)] for s, v in points]
    if len(pts) <= limit:
        return pts
    stride = math.ceil(len(pts) / limit)
    out = pts[::stride]
    if out[-1] != pts[-1]:
        out.append(pts[-1])
    return out


def storage_envelope_bits(
    algorithm: str,
    n: int,
    value_bits: int,
    writes: int,
    symbol_bits: Optional[float] = None,
) -> Optional[float]:
    """The hard upper envelope total storage can never exceed.

    Per algorithm, from first principles about what servers retain:

    * ``abd`` — every server stores exactly one full value, always:
      ``N * log2|V|``.
    * ``cas``/``casgc`` — a server can hold at most one coded element
      per version ever written (the ``writes`` invoked plus the initial
      value): ``(writes + 1) * N * symbol_bits``.  CASGC normally stays
      far below this (see ``gc_expected_bits`` in the analytics doc);
      the hard envelope is deliberately loss-proof so an anomaly flag is
      always a genuine accounting violation.

    Returns None when the inputs do not determine an envelope (unknown
    algorithm, or a coded algorithm without its symbol size).
    """
    if algorithm == "abd":
        return float(n * value_bits)
    if algorithm in ("cas", "casgc"):
        if symbol_bits is None:
            return None
        return float((writes + 1) * n * symbol_bits)
    return None


# -- per-run telemetry (collected by run_chaos_workload) ---------------------


def run_telemetry(
    observer,
    operations: Sequence = (),
    symbol_bits: Optional[float] = None,
    gc_depth: Optional[int] = None,
) -> dict:
    """Summarize one instrumented run as a plain-JSON telemetry dict.

    Attached to :class:`~repro.faults.campaign.ChaosRunResult` so it
    survives the run cache and the worker-pool boundary; consumed by
    :func:`analyze_campaign`.
    """
    registry = observer.registry
    spans = observer.spans
    phases: Dict[str, List[int]] = {}
    for span in spans.spans:
        duration = span.duration_steps
        if duration is not None:
            phases.setdefault(span.name, []).append(duration)
    total = registry.series.get("storage.total_bits")
    max_server = registry.series.get("storage.max_server_bits")
    writes = sum(1 for op in operations if op.kind == "write")
    return {
        "phases": {name: sorted(phases[name]) for name in sorted(phases)},
        "phase_orphans": {
            "open": len(spans.open_spans()),
            "crash_orphans": len(getattr(spans, "crash_orphans", ())),
            "unmatched_ends": len(spans.unmatched_ends),
        },
        "storage": {
            "peak_total_bits": total.max_value() if total else None,
            "peak_max_server_bits": (
                max_server.max_value() if max_server else None
            ),
            "series": downsample_series(total.points() if total else ()),
        },
        "counters": registry.counter_values(),
        "nu_observed": max_concurrent_writes(operations),
        "writes_invoked": writes,
        "symbol_bits": symbol_bits,
        "gc_depth": gc_depth,
    }


# -- campaign fold -----------------------------------------------------------


def _phase_stats(durations: List[int]) -> dict:
    ordered = sorted(durations)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": percentile(ordered, 0.50),
        "p90": percentile(ordered, 0.90),
        "p99": percentile(ordered, 0.99),
        "max": ordered[-1],
    }


def _fold_envelope(series_list: List[List[List[float]]]) -> List[List[float]]:
    """Per-step-bucket maximum across runs' storage series."""
    if not series_list:
        return []
    max_step = max((pt[0] for series in series_list for pt in series),
                   default=0)
    width = max_step // ENVELOPE_BUCKETS + 1
    buckets: Dict[int, float] = {}
    for series in series_list:
        for step, value in series:
            bucket = int(step) // width * width
            if value > buckets.get(bucket, float("-inf")):
                buckets[bucket] = value
    return [[b, buckets[b]] for b in sorted(buckets)]


def analyze_campaign(report) -> dict:
    """Fold a :class:`~repro.faults.campaign.CampaignReport` into the
    ``repro.analytics/1`` document (see the module docstring)."""
    runs = report.results
    telemetry_runs = [r for r in runs if getattr(r, "telemetry", None)]
    verdicts: Dict[str, int] = {}
    for r in runs:
        v = r.verdict()
        verdicts[v] = verdicts.get(v, 0) + 1

    anomalies: List[dict] = []
    per_alg: Dict[str, dict] = {}
    by_alg: Dict[str, List] = {}
    for r in runs:
        by_alg.setdefault(r.algorithm, []).append(r)

    for algorithm in sorted(by_alg):
        alg_runs = by_alg[algorithm]
        alg_verdicts: Dict[str, int] = {}
        phases: Dict[str, List[int]] = {}
        series_list: List[List[List[float]]] = []
        peak_total: Optional[float] = None
        peak_max: Optional[float] = None
        nu_max = 0
        envelope_bound: Optional[float] = None
        gc_expected: Optional[float] = None
        for r in alg_runs:
            v = r.verdict()
            alg_verdicts[v] = alg_verdicts.get(v, 0) + 1
            if getattr(r, "quarantined", False):
                anomalies.append(
                    {
                        "algorithm": algorithm,
                        "config": r.config.label(),
                        "seed": r.config.seed,
                        "kind": "quarantined-run",
                        "detail": f"{r.quarantine_attempts} timed-out "
                        "execution(s); no verdict produced",
                    }
                )
            if not r.live and r.diagnosis is not None:
                anomalies.append(
                    {
                        "algorithm": algorithm,
                        "config": r.config.label(),
                        "seed": r.config.seed,
                        "kind": "diagnosed-stall",
                        "detail": r.diagnosis.verdict,
                    }
                )
            if r.byzantine_detected > 0:
                anomalies.append(
                    {
                        "algorithm": algorithm,
                        "config": r.config.label(),
                        "seed": r.config.seed,
                        "kind": "byzantine-masked",
                        "detail": f"{r.byzantine_detected} corrupt "
                        "response(s) detected and masked",
                    }
                )
            telemetry = getattr(r, "telemetry", None)
            if not telemetry:
                continue
            for name, durations in telemetry.get("phases", {}).items():
                phases.setdefault(name, []).extend(durations)
            storage = telemetry.get("storage", {})
            run_peak = storage.get("peak_total_bits")
            run_peak_max = storage.get("peak_max_server_bits")
            if run_peak is not None:
                peak_total = (
                    run_peak if peak_total is None
                    else max(peak_total, run_peak)
                )
            if run_peak_max is not None:
                peak_max = (
                    run_peak_max if peak_max is None
                    else max(peak_max, run_peak_max)
                )
            if storage.get("series"):
                series_list.append(storage["series"])
            nu_max = max(nu_max, telemetry.get("nu_observed", 0))
            envelope = storage_envelope_bits(
                algorithm,
                report.n,
                report.value_bits,
                telemetry.get("writes_invoked", 0),
                symbol_bits=telemetry.get("symbol_bits"),
            )
            if envelope is not None and run_peak is not None:
                if run_peak > envelope:
                    anomalies.append(
                        {
                            "algorithm": algorithm,
                            "config": r.config.label(),
                            "seed": r.config.seed,
                            "kind": "storage-over-envelope",
                            "detail": f"peak {run_peak:.1f} bits exceeds "
                            f"envelope {envelope:.1f} bits",
                        }
                    )
                envelope_bound = (
                    envelope if envelope_bound is None
                    else max(envelope_bound, envelope)
                )
            gc_depth = telemetry.get("gc_depth")
            symbol = telemetry.get("symbol_bits")
            if (
                algorithm == "casgc"
                and gc_depth is not None
                and symbol is not None
            ):
                expected = (
                    (gc_depth + telemetry.get("nu_observed", 0) + 2)
                    * report.n * symbol
                )
                gc_expected = (
                    expected if gc_expected is None
                    else max(gc_expected, expected)
                )

        nu_for_bounds = max(nu_max, 1)
        upper: Dict[str, Optional[float]] = {
            "abd_upper_bits": (
                _bounds.abd_upper_total_normalized(report.f)
                * report.value_bits
            ),
        }
        try:
            upper["erasure_coding_upper_bits"] = (
                _bounds.erasure_coding_upper_total_normalized(
                    report.n, report.f, nu_for_bounds
                )
                * report.value_bits
            )
        except BoundError:
            upper["erasure_coding_upper_bits"] = None
        try:
            upper["bks_integrated_bits"] = _bounds.bks_integrated_total_bits(
                report.f, 2 ** report.value_bits, nu_for_bounds
            )
        except BoundError:
            upper["bks_integrated_bits"] = None

        per_alg[algorithm] = {
            "runs": len(alg_runs),
            "telemetry_runs": sum(
                1 for r in alg_runs if getattr(r, "telemetry", None)
            ),
            "verdicts": {k: alg_verdicts[k] for k in sorted(alg_verdicts)},
            "phases": {
                name: _phase_stats(phases[name]) for name in sorted(phases)
            },
            "storage": {
                "peak_total_bits": peak_total,
                "peak_max_server_bits": peak_max,
                "nu_max": nu_max,
                "envelope": _fold_envelope(series_list),
                "envelope_bound_bits": envelope_bound,
                "gc_expected_bits": gc_expected,
                "bounds": storage_bound_rows(
                    report.n, report.f, report.value_bits, nu_for_bounds,
                    peak_total, peak_max,
                ),
                "reference_bounds_bits": upper,
            },
        }

    return {
        "schema": ANALYTICS_SCHEMA,
        "params": {
            "n": report.n,
            "f": report.f,
            "value_bits": report.value_bits,
            "num_ops": report.num_ops,
        },
        "runs": len(runs),
        "telemetry_runs": len(telemetry_runs),
        "verdicts": {k: verdicts[k] for k in sorted(verdicts)},
        "algorithms": per_alg,
        "anomalies": anomalies,
    }


def format_analytics(doc: dict) -> str:
    """Render a ``repro.analytics/1`` document as aligned ASCII tables."""
    lines: List[str] = []
    params = doc["params"]
    lines.append(
        f"campaign analytics  [N={params['n']} f={params['f']} "
        f"|V|=2^{params['value_bits']} ops/run={params['num_ops']}]"
    )
    lines.append(
        f"runs: {doc['runs']} total, {doc['telemetry_runs']} with telemetry"
    )
    lines.append("")
    lines.append("verdicts")
    lines.append(
        format_table(
            ("verdict", "runs"),
            sorted(doc["verdicts"].items()),
            indent="  ",
        )
    )
    for algorithm in sorted(doc["algorithms"]):
        section = doc["algorithms"][algorithm]
        lines.append("")
        lines.append(f"{algorithm}: per-phase latency (steps)")
        phase_rows = [
            (
                name,
                stats["count"],
                stats["mean"],
                stats["p50"],
                stats["p90"],
                stats["p99"],
                stats["max"],
            )
            for name, stats in section["phases"].items()
        ]
        if phase_rows:
            lines.append(
                format_table(
                    ("phase", "count", "mean", "p50", "p90", "p99", "max"),
                    phase_rows,
                    float_fmt=".2f",
                    indent="  ",
                )
            )
        else:
            lines.append("  (no telemetry)")
        storage = section["storage"]
        if storage["peak_total_bits"] is not None:
            envelope = storage["envelope_bound_bits"]
            lines.append(
                f"  storage: peak total {storage['peak_total_bits']:.1f} bits "
                f"(max server {storage['peak_max_server_bits']:.1f}), "
                f"nu_max={storage['nu_max']}, envelope "
                + (f"{envelope:.1f} bits" if envelope is not None else "n/a")
            )
    anomalies = doc["anomalies"]
    lines.append("")
    if anomalies:
        lines.append(f"anomalies ({len(anomalies)})")
        lines.append(
            format_table(
                ("algorithm", "config", "kind", "detail"),
                [
                    (a["algorithm"], a["config"], a["kind"], a["detail"])
                    for a in anomalies
                ],
                indent="  ",
            )
        )
    else:
        lines.append("anomalies: none")
    return "\n".join(lines)


def write_analytics(doc: dict, path: str) -> None:
    """Persist a ``repro.analytics/1`` document as deterministic JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
