"""Causal event tracing: the execution itself as a queryable artifact.

The metrics layer aggregates; this module *narrates*.  Every simulator
event — send, deliver, drop, lose, duplicate, reorder, tamper, invoke,
response, crash, recover, partition, heal, protocol phase begin/end,
storage change — becomes a structured :class:`TraceEvent` carrying a
Lamport clock and causal parent references:

* **program order**: each event's parents include the previous event of
  the same process;
* **message edges**: a delivery's parents include the matching send
  (duplicated deliveries share one send; a tampered message keeps its
  causal ancestry through the corruption).

The :class:`TraceCollector` plugs into :class:`~repro.obs.recorder.
SimObserver` (``SimObserver(tracer=TraceCollector())``), so tracing
obeys the same contract as the rest of the obs layer: tracing-off is a
single falsy truth test at each ``World`` hook site, and a collector
only *reads* simulator state — it changes no scheduler decision and
``world_digest`` ignores it.  Everything recorded is derived from the
deterministic simulation (steps, pids, message kinds), so a trace is
byte-identical across same-seed runs at any ``--jobs``.

Two export formats:

* ``repro.trace/1`` (:func:`trace_document`) — the canonical versioned
  JSON schema (events + spans + meta), sliceable around a step;
* Chrome trace-event JSON (:func:`chrome_trace_dict`) — loadable in
  Perfetto / ``chrome://tracing``: spans become duration events,
  send→deliver pairs become flow arrows, faults become instants.

``python -m repro trace capture|export|slice`` drives both from the
command line; :func:`capture_trace_task` is the module-level pool task
so multi-seed captures fan out over ``repro.parallel`` workers.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Tuple

#: Schema tag of the canonical trace artifact.
TRACE_SCHEMA = "repro.trace/1"

#: Events kept in the bounded tail a chaos run attaches to its result
#: (and, through triage, to every counterexample bundle).
TRACE_TAIL_EVENTS = 64

#: Pseudo-process owning environment-level events (partition cuts,
#: heals, storage samples) and channel-level fault events.
ENV = ""


@dataclass
class TraceEvent:
    """One causally-annotated simulator event."""

    event_id: int
    step: int
    kind: str
    process: str = ENV
    src: str = ""
    dst: str = ""
    message_kind: str = ""
    lamport: int = 0
    parents: Tuple[int, ...] = ()
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """JSON-ready view with deterministic content."""
        return {
            "id": self.event_id,
            "step": self.step,
            "kind": self.kind,
            "process": self.process,
            "src": self.src,
            "dst": self.dst,
            "message": self.message_kind,
            "lamport": self.lamport,
            "parents": list(self.parents),
            "extra": {k: self.extra[k] for k in sorted(self.extra)},
        }


class TraceCollector:
    """Collects :class:`TraceEvent` streams through SimObserver hooks.

    ``max_events=None`` keeps the full trace (``repro trace capture``);
    a positive bound keeps only the newest events — the *tail* a chaos
    run ships with its result so every counterexample carries the
    causal history leading into the failure.  Dropped-event count is
    reported, and parent references may point at dropped ids (they stay
    meaningful as ordering evidence).

    Message identity: sends are keyed by the message object's ``id()``
    with a strong reference pinned in the map, so a duplicate delivery
    of the same frozen ``Message`` resolves to the same send event and
    CPython id reuse can never alias two live messages.

    Each event is stored as one plain row, its :class:`TraceEvent`
    fields in order, in a ``deque(maxlen=max_events)``.  ``TraceEvent``
    objects are built only when the events are read (:attr:`events`,
    :meth:`tail_json`, :func:`trace_document`), so a bounded tail
    builds only what it keeps.
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.max_events = max_events
        self._rows = deque(maxlen=max_events)
        self.dropped = 0
        #: Per-process Lamport clocks (ENV owns the environment clock).
        self._clocks: Dict[str, int] = {}
        #: process -> id of its latest event (the program-order edge).
        self._last_event: Dict[str, int] = {}
        #: id(message) -> (message strong-ref, send event id, send lamport).
        self._messages: Dict[int, Tuple[object, int, int]] = {}
        self._next_id = 0
        self._last_storage: Optional[Tuple[float, float]] = None

    def __deepcopy__(self, memo: dict) -> "TraceCollector":
        """Fork support: copy history, drop the in-flight message map.

        ``World.fork`` deep-copies the observer; deep-copied messages
        get fresh ids, so the id-keyed send map cannot survive the
        copy.  Deliveries of messages sent before the fork lose their
        message edge in the clone (program order is retained) — chaos
        runs never fork mid-trace, so this only affects exploration.
        """
        clone = TraceCollector(max_events=self.max_events)
        clone._rows.extend(row[:-1] + (dict(row[-1]),) for row in self._rows)
        clone.dropped = self.dropped
        clone._clocks = dict(self._clocks)
        clone._last_event = dict(self._last_event)
        clone._next_id = self._next_id
        clone._last_storage = self._last_storage
        memo[id(self)] = clone
        return clone

    @property
    def events(self) -> List[TraceEvent]:
        """The kept events, oldest first, built from the rows on each read."""
        return [TraceEvent(*row) for row in self._rows]

    # -- event construction --------------------------------------------------

    def _emit(
        self,
        step: int,
        kind: str,
        process: str,
        src: str = "",
        dst: str = "",
        message_kind: str = "",
        lamport: Optional[int] = None,
        message_parent: Optional[int] = None,
        extra: Optional[dict] = None,
    ) -> int:
        """Store one event row (ticking ``process``'s clock unless
        ``lamport`` is given); returns the event's id."""
        event_id = self._next_id
        self._next_id = event_id + 1
        # Parents in id order: the process's previous event and the
        # message's send event, each if there is one, once.
        prev = self._last_event.get(process)
        if message_parent is None or message_parent == prev:
            parents = () if prev is None else (prev,)
        elif prev is None:
            parents = (message_parent,)
        elif prev < message_parent:
            parents = (prev, message_parent)
        else:
            parents = (message_parent, prev)
        if lamport is None:
            lamport = self._clocks.get(process, 0) + 1
            self._clocks[process] = lamport
        self._last_event[process] = event_id
        rows = self._rows
        if len(rows) == self.max_events:
            self.dropped += 1  # the deque drops its oldest row
        rows.append((event_id, step, kind, process, src, dst, message_kind,
                     lamport, parents, extra or {}))
        return event_id

    def _send_entry(self, message) -> Optional[Tuple[object, int, int]]:
        return self._messages.get(id(message))

    # -- hooks (called by SimObserver) ---------------------------------------

    def on_send(self, step: int, src: str, dst: str, message) -> None:
        """A message entered the channel src->dst."""
        event_id = self._emit(step, "send", src, src=src, dst=dst,
                              message_kind=message.kind)
        # ``_emit`` just ticked ``src``'s clock to the send's Lamport time.
        self._messages[id(message)] = (message, event_id, self._clocks[src])

    def on_deliver(self, step: int, src: str, dst: str, message) -> None:
        """A message reached its receiver's handler."""
        entry = self._send_entry(message)
        send_id = entry[1] if entry else None
        send_lamport = entry[2] if entry else 0
        lamport = max(self._clocks.get(dst, 0), send_lamport) + 1
        self._clocks[dst] = lamport
        extra = {"send_id": send_id} if send_id is not None else {}
        self._emit(step, "deliver", dst, src=src, dst=dst,
                   message_kind=message.kind, lamport=lamport,
                   message_parent=send_id, extra=extra)

    def _channel_event(
        self, step: int, kind: str, src: str, dst: str, message,
        extra: Optional[dict] = None,
    ) -> None:
        """A fault that happened *in the channel*, attributed to ENV."""
        entry = self._send_entry(message)
        send_id = entry[1] if entry else None
        merged = dict(extra or {})
        if send_id is not None:
            merged["send_id"] = send_id
        self._emit(step, kind, ENV, src=src, dst=dst,
                   message_kind=message.kind, message_parent=send_id,
                   extra=merged)

    def on_drop(self, step: int, src: str, dst: str, message) -> None:
        """Adversary lost the message in transit (``lose`` action)."""
        self._channel_event(step, "lose", src, dst, message)

    def on_crashed_drop(self, step: int, src: str, dst: str, message) -> None:
        """Message consumed because the receiver is crashed."""
        self._channel_event(step, "drop", src, dst, message)

    def on_duplicate(self, step: int, src: str, dst: str, message) -> None:
        """Adversary re-enqueued a copy before delivering."""
        self._channel_event(step, "duplicate", src, dst, message)

    def on_reorder(self, step: int, src: str, dst: str, message, index: int) -> None:
        """Adversary dequeued a non-head message (bounded reorder)."""
        self._channel_event(step, "reorder", src, dst, message,
                            extra={"index": index})

    def on_tamper(
        self, step: int, src: str, dst: str, message, tampered, corruption: str
    ) -> None:
        """Adversary replaced the message; causal ancestry is re-keyed
        to the tampered object so the delivery still finds its send."""
        entry = self._send_entry(message)
        self._channel_event(step, "tamper", src, dst, message,
                            extra={"corruption": corruption,
                                   "tampered_kind": tampered.kind})
        if entry is not None:
            self._messages[id(tampered)] = (tampered, entry[1], entry[2])

    def on_invoke(self, step: int, record) -> None:
        """A client operation was invoked."""
        extra = {"op_id": record.op_id, "op": record.kind}
        if record.kind == "write":
            extra["value"] = record.value
        self._emit(step, "invoke", record.client, extra=extra)

    def on_response(self, step: int, record) -> None:
        """A client operation responded."""
        extra = {
            "op_id": record.op_id,
            "op": record.kind,
            "latency_steps": record.response_step - record.invoke_step,
        }
        if record.kind == "read":
            extra["value"] = record.value
        self._emit(step, "response", record.client, extra=extra)

    def on_crash(self, step: int, pid: str) -> None:
        """A process crashed."""
        self._emit(step, "crash", pid)

    def on_recover(self, step: int, pid: str) -> None:
        """A crashed process recovered from its persisted state."""
        self._emit(step, "recover", pid)

    def on_partition(self, step: int, pids: Tuple[str, ...],
                     tick: Optional[int] = None) -> None:
        """The adversary cut a partition isolating ``pids``."""
        extra: dict = {"pids": sorted(pids)}
        if tick is not None:
            extra["tick"] = tick
        self._emit(step, "partition", ENV, extra=extra)

    def on_heal(self, step: int, tick: Optional[int] = None) -> None:
        """The active partition healed."""
        extra = {"tick": tick} if tick is not None else {}
        self._emit(step, "heal", ENV, extra=extra)

    def on_storage(self, step: int, total_bits: float, max_server_bits: float) -> None:
        """Sampled storage occupancy changed (a storage write landed)."""
        sample = (total_bits, max_server_bits)
        if sample == self._last_storage:
            return
        self._last_storage = sample
        self._emit(step, "storage", ENV,
                   extra={"total_bits": total_bits,
                          "max_server_bits": max_server_bits})

    def on_phase_begin(self, step: int, owner: str, name: str, span) -> None:
        """A protocol phase span opened."""
        extra = {"name": name}
        if span is not None:
            extra["span_id"] = span.span_id
            if span.op_id is not None:
                extra["op_id"] = span.op_id
        self._emit(step, "phase-begin", owner, extra=extra)

    def on_phase_end(self, step: int, owner: str, name: str, span) -> None:
        """A protocol phase span closed (or orphan-ended)."""
        extra = {"name": name}
        if span is not None:
            extra["span_id"] = span.span_id
            if span.op_id is not None:
                extra["op_id"] = span.op_id
        self._emit(step, "phase-end", owner, extra=extra)

    # -- export --------------------------------------------------------------

    def tail_json(self, limit: int = TRACE_TAIL_EVENTS) -> List[dict]:
        """The newest ``limit`` events as JSON-ready dicts."""
        rows = self._rows
        newest = islice(rows, max(0, len(rows) - limit), None)
        return [TraceEvent(*row).to_json_dict() for row in newest]

    def __repr__(self) -> str:
        return (
            f"TraceCollector({len(self._rows)} events, "
            f"{self.dropped} dropped)"
        )


# -- documents ---------------------------------------------------------------


def trace_document(
    collector: TraceCollector,
    spans: Optional[List[dict]] = None,
    meta: Optional[dict] = None,
) -> dict:
    """The canonical ``repro.trace/1`` document for one run."""
    return {
        "schema": TRACE_SCHEMA,
        "meta": dict(meta or {}),
        "dropped_events": collector.dropped,
        "events": [e.to_json_dict() for e in collector.events],
        "spans": list(spans or []),
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The JSON types a field may hold, named as error messages name them.
_INT, _INT_OR_NULL, _STRING = "an int", "an int or null", "a string"
_LIST, _INTS, _OBJECT = "a list", "a list of ints", "an object"
_TYPES = {
    _INT: _is_int,
    _INT_OR_NULL: lambda value: value is None or _is_int(value),
    _STRING: lambda value: isinstance(value, str),
    _LIST: lambda value: isinstance(value, list),
    _INTS: lambda value: isinstance(value, list) and all(map(_is_int, value)),
    _OBJECT: lambda value: isinstance(value, dict),
}

#: Top-level fields the readers use, each optional.
_DOCUMENT_FIELDS = {
    "events": _LIST, "spans": _LIST, "meta": _OBJECT, "dropped_events": _INT,
}

#: Row fields the readers index.  All are required except ``lamport``,
#: ``parents`` and ``extra``, which are read with ``.get``.
_ROW_FIELDS = {
    "events": {
        "id": _INT, "step": _INT, "kind": _STRING, "process": _STRING,
        "src": _STRING, "dst": _STRING, "message": _STRING,
        "lamport": _INT, "parents": _INTS, "extra": _OBJECT,
    },
    "spans": {
        "span_id": _INT, "name": _STRING, "owner": _STRING,
        "op_id": _INT_OR_NULL, "begin_step": _INT, "end_step": _INT_OR_NULL,
    },
}
_OPTIONAL_ROW_FIELDS = frozenset(("lamport", "parents", "extra"))


def validate_trace_document(doc: dict) -> dict:
    """Reject documents that are not ``repro.trace/1``; returns ``doc``.

    A row lacking a required field, or any field the readers below use
    holding the wrong JSON type, raises ``ConfigurationError`` naming
    the field, the row and the expected type, so a damaged file never
    reaches them as a bare ``KeyError`` or ``TypeError``.
    """
    from repro.errors import ConfigurationError

    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != TRACE_SCHEMA:
        raise ConfigurationError(
            f"unsupported trace schema {schema!r} (expected {TRACE_SCHEMA!r})"
        )

    def check(where: str, name: str, value, expected: str) -> None:
        if not _TYPES[expected](value):
            raise ConfigurationError(
                f"trace {where}field {name!r} must be {expected}, "
                f"not {type(value).__name__}"
            )

    for name, expected in _DOCUMENT_FIELDS.items():
        if name in doc:
            check("", name, doc[name], expected)
    for section, fields in _ROW_FIELDS.items():
        for index, row in enumerate(doc.get(section, ())):
            if not isinstance(row, dict):
                raise ConfigurationError(f"trace {section}[{index}] is not an object")
            for name, expected in fields.items():
                if name in row:
                    check(f"{section}[{index}] ", name, row[name], expected)
                elif name not in _OPTIONAL_ROW_FIELDS:
                    raise ConfigurationError(
                        f"trace {section}[{index}] lacks field {name!r}"
                    )
    return doc


def slice_document(doc: dict, around: int, radius: int = 50) -> dict:
    """Events within ``radius`` steps of ``around``, spans overlapping it.

    The returned document is again ``repro.trace/1`` with a ``slice``
    entry in its meta, so slices can themselves be exported to Chrome
    format or re-sliced.
    """
    validate_trace_document(doc)
    lo, hi = around - radius, around + radius
    events = [e for e in doc.get("events", ()) if lo <= e["step"] <= hi]
    spans = [
        s
        for s in doc.get("spans", ())
        if s["begin_step"] <= hi
        and (s["end_step"] is None or s["end_step"] >= lo)
    ]
    meta = dict(doc.get("meta", {}))
    meta["slice"] = {"around": around, "radius": radius}
    kept = {e["id"] for e in events}
    return {
        "schema": TRACE_SCHEMA,
        "meta": meta,
        "dropped_events": doc.get("dropped_events", 0)
        + len(doc.get("events", ())) - len(events),
        "events": events,
        "spans": spans,
        # Parent ids referencing events outside the window stay in the
        # slice (they are ordering evidence); record how many.
        "dangling_parents": sum(
            1
            for e in events
            for p in e.get("parents", ())
            if p not in kept
        ),
    }


def chrome_trace_dict(doc: dict) -> dict:
    """Convert ``repro.trace/1`` to Chrome trace-event JSON.

    Loadable in Perfetto / ``chrome://tracing``: one process ("repro
    simulation"), one thread per simulated process (plus thread 0 for
    the environment), spans as ``X`` complete events (1 step = 1 µs),
    send→deliver pairs as ``s``/``f`` flow arrows, and every fault,
    invocation and response as an ``i`` instant.  Output order is a
    deterministic function of the input document.
    """
    validate_trace_document(doc)
    events = doc.get("events", [])
    spans = doc.get("spans", [])
    owners = sorted(
        {s["owner"] for s in spans}
        | {e["process"] for e in events if e["process"]}
        | {e["src"] for e in events if e.get("src")}
        | {e["dst"] for e in events if e.get("dst")}
    )
    tids = {ENV: 0}
    for i, owner in enumerate(owners):
        tids[owner] = i + 1

    out: List[dict] = [
        {
            "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": "repro simulation"},
        },
        {
            "ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
            "args": {"name": "environment"},
        },
    ]
    for owner in owners:
        out.append(
            {
                "ph": "M", "pid": 1, "tid": tids[owner],
                "name": "thread_name", "args": {"name": owner},
            }
        )

    max_step = 0
    for e in events:
        max_step = max(max_step, e["step"])
    for s in spans:
        if s["end_step"] is not None:
            max_step = max(max_step, s["end_step"])
        max_step = max(max_step, s["begin_step"])

    for s in spans:
        tid = tids.get(s["owner"], 0)
        args = {"span_id": s["span_id"], "op_id": s["op_id"]}
        if s["end_step"] is None:
            # Orphan span: extend to the end of the trace, flagged.
            args["orphan"] = True
            duration = max_step - s["begin_step"]
        else:
            duration = s["end_step"] - s["begin_step"]
        out.append(
            {
                "ph": "X", "pid": 1, "tid": tid, "cat": "span",
                "name": s["name"], "ts": s["begin_step"],
                "dur": max(duration, 1), "args": args,
            }
        )

    by_id = {e["id"]: e for e in events}
    instant_kinds = {
        "lose", "drop", "duplicate", "reorder", "tamper", "crash",
        "recover", "partition", "heal", "storage", "invoke", "response",
    }
    for e in events:
        kind = e["kind"]
        if kind == "deliver":
            send_id = e.get("extra", {}).get("send_id")
            send = by_id.get(send_id) if send_id is not None else None
            if send is not None:
                out.append(
                    {
                        "ph": "s", "pid": 1, "tid": tids.get(send["src"], 0),
                        "cat": "message", "name": send["message"],
                        "id": send_id, "ts": send["step"],
                    }
                )
                out.append(
                    {
                        "ph": "f", "bp": "e", "pid": 1,
                        "tid": tids.get(e["dst"], 0), "cat": "message",
                        "name": send["message"], "id": send_id,
                        "ts": e["step"],
                    }
                )
        elif kind in instant_kinds:
            scope = "g" if e["process"] == ENV else "t"
            tid = tids.get(e["process"] or e.get("dst", ""), 0)
            out.append(
                {
                    "ph": "i", "pid": 1, "tid": tid, "cat": kind,
                    "name": f"{kind}:{e['message']}" if e["message"] else kind,
                    "ts": e["step"], "s": scope,
                    "args": {
                        k: e["extra"][k] for k in sorted(e.get("extra", {}))
                    },
                }
            )
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_trace(doc: dict, path: str) -> None:
    """Persist any trace-shaped dict as deterministic JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_trace(path: str) -> dict:
    """Load and schema-check a ``repro.trace/1`` artifact."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_trace_document(json.load(fh))


# -- capture (the `repro trace capture` pool task) ---------------------------


def capture_trace_task(payload: dict) -> dict:
    """One traced chaos run -> ``repro.trace/1`` document (pool task).

    Module-level and import-lazy (the campaign machinery lives above
    the obs layer), so the worker pool can dispatch it by reference and
    multi-seed captures are byte-identical at any ``--jobs``.
    """
    from repro.faults.campaign import (
        FaultConfig,
        campaign_builder_params,
        run_chaos_workload,
    )
    from repro.obs.recorder import SimObserver
    from repro.registers.catalog import build_client_system

    config = FaultConfig.from_cache_dict(payload["config"])
    handle = build_client_system(
        payload["algorithm"],
        payload["n"],
        payload["f"],
        payload["value_bits"],
        **campaign_builder_params(config),
    )
    tracer = TraceCollector()
    observer = SimObserver(tracer=tracer)
    handle.world.obs = observer
    result = run_chaos_workload(
        handle, config, payload["num_ops"], payload["max_ticks"]
    )
    meta = {
        "algorithm": payload["algorithm"],
        "n": payload["n"],
        "f": payload["f"],
        "value_bits": payload["value_bits"],
        "num_ops": payload["num_ops"],
        "config": config.to_cache_dict(),
        "verdict": result.verdict(),
        "safety_ok": result.safety_ok,
        "steps": result.steps,
    }
    return trace_document(
        tracer, observer.spans.to_json_list(), meta
    )
