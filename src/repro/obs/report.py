"""MetricsReport: aggregate telemetry into tables and JSON artifacts.

A report bundles one run's registry snapshot, span statistics, and an
empirical-vs-bound comparison: the observed per-step storage maxima
against the paper's lower bounds (Theorems B.1, 4.1, 5.1, 6.5)
evaluated at the same ``(N, f, |V|, nu)``.  Bounds whose hypotheses
fail at the parameter point (e.g. Theorem 4.1 at ``f < 2``) are
reported as inapplicable rather than skipped silently.

JSON output is deterministic by construction: keys sorted, no wall
clock, no environment capture — running the same seeded workload twice
yields byte-identical files.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.core import bounds as _bounds
from repro.errors import BoundError
from repro.util.tables import format_table

#: Version tag embedded in every JSON report.
REPORT_SCHEMA = "repro.metrics/1"


def storage_bound_rows(
    n: int,
    f: int,
    value_bits: int,
    nu: int,
    observed_total_bits: Optional[float],
    observed_max_bits: Optional[float],
) -> List[dict]:
    """Compare observed peak storage against each theorem's lower bound.

    Returns one row per (theorem, total/max) pair with the bound in
    bits, the observed peak, and whether the observation satisfies the
    bound.  ``bound_bits`` is None (status ``n/a``) when the theorem's
    hypotheses fail at this parameter point.
    """
    v_size = 2 ** value_bits
    specs = [
        ("theorem_b1", "total", lambda: _bounds.singleton_total_bits(n, f, v_size)),
        ("theorem_b1", "max", lambda: _bounds.singleton_max_bits(n, f, v_size)),
        ("theorem_41", "total", lambda: _bounds.theorem41_total_bits(n, f, v_size)),
        ("theorem_41", "max", lambda: _bounds.theorem41_max_bits(n, f, v_size)),
        ("theorem_51", "total", lambda: _bounds.theorem51_total_bits(n, f, v_size)),
        ("theorem_51", "max", lambda: _bounds.theorem51_max_bits(n, f, v_size)),
        ("theorem_65", "total", lambda: _bounds.theorem65_total_bits(n, f, v_size, nu)),
        ("theorem_65", "max", lambda: _bounds.theorem65_max_bits(n, f, v_size, nu)),
    ]
    rows: List[dict] = []
    for theorem, scope, compute in specs:
        observed = observed_total_bits if scope == "total" else observed_max_bits
        try:
            bound = compute()
        except BoundError as exc:
            rows.append(
                {
                    "theorem": theorem,
                    "scope": scope,
                    "bound_bits": None,
                    "observed_bits": observed,
                    "status": "n/a",
                    "note": str(exc),
                }
            )
            continue
        if observed is None:
            status = "unmeasured"
        elif observed >= bound:
            status = "satisfied"
        else:
            status = "VIOLATED"
        rows.append(
            {
                "theorem": theorem,
                "scope": scope,
                "bound_bits": bound,
                "observed_bits": observed,
                "status": status,
                "note": "",
            }
        )
    return rows


def format_bound_rows(rows: List[dict]) -> str:
    """Render :func:`storage_bound_rows` output as an indented table.

    Columns: theorem, scope, bound, observed, status; a missing bound
    or observation prints as ``n/a``.
    """
    return format_table(
        ["theorem", "scope", "bound", "observed", "status"],
        [
            (
                r["theorem"],
                r["scope"],
                "n/a" if r["bound_bits"] is None else r["bound_bits"],
                "n/a" if r["observed_bits"] is None else r["observed_bits"],
                r["status"],
            )
            for r in rows
        ],
        float_fmt=".2f",
        indent="  ",
    )


class MetricsReport:
    """One run's telemetry, renderable as text or deterministic JSON.

    Parameters
    ----------
    meta:
        Run parameters (algorithm, n, f, value_bits, ops, seed, ...).
        Must contain only deterministic values — no wall times.
    observer:
        The :class:`~repro.obs.recorder.SimObserver` that watched the
        run (a fresh one yields an empty-but-valid report).
    bound_rows:
        Output of :func:`storage_bound_rows`, or None to omit the
        bounds section.
    """

    def __init__(
        self,
        meta: Dict[str, object],
        observer,
        bound_rows: Optional[List[dict]] = None,
    ) -> None:
        self.meta = dict(meta)
        self.observer = observer
        self.bound_rows = bound_rows

    # -- JSON ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The full report as a JSON-ready dict (deterministic)."""
        snapshot = self.observer.registry.snapshot()
        spans = self.observer.spans
        out = {
            "schema": REPORT_SCHEMA,
            "meta": self.meta,
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "series": snapshot["series"],
            "spans": {
                "stats": spans.stats(),
                "open": [s.to_json_dict() for s in spans.open_spans()],
                "unmatched_ends": list(spans.unmatched_ends),
                "list": spans.to_json_list(),
            },
        }
        if self.bound_rows is not None:
            out["bounds"] = self.bound_rows
        return out

    def to_json(self) -> str:
        """Serialized report; byte-identical across same-seed runs."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def write_json(self, path: str) -> None:
        """Write the JSON report to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def write_series_jsonl(self, path: str) -> None:
        """Write every time series to ``path`` as JSON Lines.

        One record per sample: ``{"series": name, "step": s, "value": v}``,
        ordered by series name then step.
        """
        with open(path, "w") as fh:
            for name, series in sorted(self.observer.registry.series.items()):
                for step, value in series.points():
                    fh.write(
                        json.dumps(
                            {"series": name, "step": step, "value": value},
                            sort_keys=True,
                        )
                    )
                    fh.write("\n")

    # -- text ----------------------------------------------------------------

    def format(self) -> str:
        """Render the report as aligned ASCII tables."""
        sections: List[str] = []
        meta_line = "  ".join(f"{k}={self.meta[k]}" for k in sorted(self.meta))
        sections.append(f"metrics report  [{meta_line}]")

        snapshot = self.observer.registry.snapshot()
        if snapshot["counters"]:
            sections.append("\ncounters")
            sections.append(
                format_table(
                    ["name", "value"],
                    [(k, v) for k, v in snapshot["counters"].items()],
                    indent="  ",
                )
            )
        if snapshot["gauges"]:
            sections.append("\ngauges")
            sections.append(
                format_table(
                    ["name", "last", "min", "max"],
                    [
                        (k, g["value"], g["min"], g["max"])
                        for k, g in snapshot["gauges"].items()
                    ],
                    indent="  ",
                )
            )
        if snapshot["histograms"]:
            sections.append("\nhistograms")
            sections.append(
                format_table(
                    ["name", "count", "mean", "p50", "p90", "p99", "max"],
                    [
                        (
                            k,
                            h["count"],
                            h["mean"],
                            h["p50"],
                            h["p90"],
                            h["p99"],
                            h["max"],
                        )
                        for k, h in snapshot["histograms"].items()
                    ],
                    float_fmt=".2f",
                    indent="  ",
                )
            )

        span_stats = self.observer.spans.stats()
        if span_stats:
            sections.append("\nspans (steps)")
            sections.append(
                format_table(
                    ["phase", "count", "mean", "p50", "p95", "max"],
                    [
                        (
                            name,
                            s["count"],
                            s["mean_steps"],
                            s["p50_steps"],
                            s["p95_steps"],
                            s["max_steps"],
                        )
                        for name, s in span_stats.items()
                    ],
                    float_fmt=".2f",
                    indent="  ",
                )
            )
        open_spans = self.observer.spans.open_spans()
        if open_spans:
            sections.append(f"\n  WARNING: {len(open_spans)} span(s) never closed")
        if self.observer.spans.unmatched_ends:
            sections.append(
                f"\n  WARNING: {len(self.observer.spans.unmatched_ends)} "
                "unmatched span end(s)"
            )

        if snapshot["series"]:
            sections.append("\ntime series")
            rows = []
            for name, data in snapshot["series"].items():
                values = data["values"]
                peak = max(values) if values else None
                rows.append((name, len(values), values[-1] if values else None, peak))
            sections.append(
                format_table(
                    ["series", "samples", "last", "max"],
                    rows,
                    float_fmt=".1f",
                    indent="  ",
                )
            )

        if self.bound_rows is not None:
            sections.append("\nobserved peak storage vs lower bounds (bits)")
            sections.append(format_bound_rows(self.bound_rows))
        return "\n".join(sections)

    def __repr__(self) -> str:
        return f"MetricsReport(meta={self.meta!r})"
