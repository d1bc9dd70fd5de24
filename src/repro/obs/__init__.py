"""Observability layer: metrics, spans, and machine-readable run reports.

Everything the paper's bounds quantify — per-server storage in bits,
messages and bits exchanged, active writes at a point — becomes
structured telemetry here.  The layer is strictly optional: every
``World`` starts with ``obs = None`` and pays one truth test per hook
site until a :class:`SimObserver` is attached, and attaching one
changes no scheduler decision.

Typical use::

    from repro import MetricsReport, SimObserver, build_cas_system
    from repro import run_random_workload

    handle = build_cas_system(5, 1)
    handle.world.obs = SimObserver()
    result = run_random_workload(handle, num_ops=10, seed=0)
    print(MetricsReport({"steps": result.steps}, handle.world.obs).format())

Beyond aggregation, :mod:`repro.obs.tracing` records the execution
itself as a causal event log (``repro.trace/1``, exportable to Chrome
trace-event JSON for Perfetto), and :mod:`repro.obs.analytics` folds
per-run telemetry into fleet-wide campaign analytics
(``repro.analytics/1``).

See ``docs/observability.md`` for the metric catalog, span taxonomy,
the trace-event taxonomy, and the JSON report schemas.
"""

from repro.obs.analytics import (
    ANALYTICS_SCHEMA,
    analyze_campaign,
    format_analytics,
    max_concurrent_writes,
    run_telemetry,
    storage_envelope_bits,
    write_analytics,
)
from repro.obs.recorder import SimObserver, estimate_message_bits
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.report import MetricsReport, REPORT_SCHEMA, storage_bound_rows
from repro.obs.spans import Span, SpanTracker
from repro.obs.tracing import (
    TRACE_SCHEMA,
    TRACE_TAIL_EVENTS,
    TraceCollector,
    TraceEvent,
    chrome_trace_dict,
    load_trace,
    slice_document,
    trace_document,
    write_trace,
)

__all__ = [
    "ANALYTICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsReport",
    "REPORT_SCHEMA",
    "SimObserver",
    "Span",
    "SpanTracker",
    "TRACE_SCHEMA",
    "TRACE_TAIL_EVENTS",
    "TraceCollector",
    "TraceEvent",
    "analyze_campaign",
    "chrome_trace_dict",
    "estimate_message_bits",
    "format_analytics",
    "load_trace",
    "max_concurrent_writes",
    "run_telemetry",
    "slice_document",
    "storage_bound_rows",
    "storage_envelope_bits",
    "trace_document",
    "write_analytics",
    "write_trace",
]
