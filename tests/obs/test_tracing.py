"""Causal tracing: collector semantics, export formats, determinism."""

import copy
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.faults.campaign import FaultConfig, run_chaos_workload
from repro.obs.recorder import SimObserver
from repro.obs.tracing import (
    TRACE_SCHEMA,
    TraceCollector,
    capture_trace_task,
    chrome_trace_dict,
    load_trace,
    slice_document,
    trace_document,
    validate_trace_document,
)
from repro.parallel.pool import run_tasks
from repro.registers.catalog import MULTI_WRITER, build_client_system


def msg(kind="ping"):
    return SimpleNamespace(kind=kind)


class TestCollector:
    def test_program_order_parent(self):
        tc = TraceCollector()
        tc.on_invoke(1, SimpleNamespace(op_id=0, kind="read", client="r000"))
        tc.on_response(
            5,
            SimpleNamespace(
                op_id=0, kind="read", client="r000", value=3,
                invoke_step=1, response_step=5,
            ),
        )
        first, second = tc.events
        assert second.parents == (first.event_id,)
        assert second.lamport == first.lamport + 1

    def test_message_edge_and_lamport(self):
        tc = TraceCollector()
        m = msg()
        tc.on_send(1, "w000", "s000", m)
        tc.on_deliver(3, "w000", "s000", m)
        send, deliver = tc.events
        assert send.event_id in deliver.parents
        assert deliver.extra["send_id"] == send.event_id
        assert deliver.lamport > send.lamport

    def test_duplicate_delivery_shares_send(self):
        tc = TraceCollector()
        m = msg()
        tc.on_send(1, "w000", "s000", m)
        tc.on_duplicate(2, "w000", "s000", m)
        tc.on_deliver(3, "w000", "s000", m)
        tc.on_deliver(4, "w000", "s000", m)
        send = tc.events[0]
        delivers = [e for e in tc.events if e.kind == "deliver"]
        assert len(delivers) == 2
        assert all(d.extra["send_id"] == send.event_id for d in delivers)

    def test_tamper_rekeys_causal_ancestry(self):
        tc = TraceCollector()
        original, tampered = msg("pre"), msg("pre-corrupt")
        tc.on_send(1, "w000", "s000", original)
        tc.on_tamper(2, "w000", "s000", original, tampered, "byzantine:garbage")
        tc.on_deliver(3, "w000", "s000", tampered)
        send = tc.events[0]
        tamper = next(e for e in tc.events if e.kind == "tamper")
        deliver = next(e for e in tc.events if e.kind == "deliver")
        assert tamper.extra["corruption"] == "byzantine:garbage"
        assert tamper.extra["tampered_kind"] == "pre-corrupt"
        assert deliver.extra["send_id"] == send.event_id

    def test_bounded_tail_counts_drops(self):
        tc = TraceCollector(max_events=3)
        for step in range(10):
            tc.on_crash(step, "s000")
        assert len(tc.events) == 3
        assert tc.dropped == 7
        assert [e.step for e in tc.events] == [7, 8, 9]
        assert [e["step"] for e in tc.tail_json(2)] == [8, 9]
        assert tc.tail_json(0) == []
        assert len(tc.tail_json(5)) == 3

    def test_storage_samples_dedup_unchanged(self):
        tc = TraceCollector()
        tc.on_storage(1, 30.0, 6.0)
        tc.on_storage(2, 30.0, 6.0)
        tc.on_storage(3, 36.0, 12.0)
        assert [e.step for e in tc.events] == [1, 3]

    def test_deepcopy_keeps_history_drops_message_map(self):
        tc = TraceCollector()
        m = msg()
        tc.on_send(1, "w000", "s000", m)
        clone = copy.deepcopy(tc)
        assert [e.to_json_dict() for e in clone.events] == [
            e.to_json_dict() for e in tc.events
        ]
        # The id-keyed send map cannot survive a deep copy (copied
        # messages get fresh ids): the clone's delivery loses only its
        # message edge, never crashes.
        clone.on_deliver(2, "w000", "s000", m)
        deliver = clone.events[-1]
        assert "send_id" not in deliver.extra
        # The original still resolves the edge.
        tc.on_deliver(2, "w000", "s000", m)
        assert tc.events[-1].extra["send_id"] == tc.events[0].event_id


class TestDocuments:
    def make_doc(self):
        tc = TraceCollector()
        m = msg()
        tc.on_send(10, "w000", "s000", m)
        tc.on_deliver(20, "w000", "s000", m)
        tc.on_crash(90, "s001")
        spans = [
            {"span_id": 0, "name": "op/write", "owner": "w000",
             "begin_step": 10, "end_step": 25, "duration_steps": 15,
             "op_id": 0, "parent_id": None},
            {"span_id": 1, "name": "read/query", "owner": "r000",
             "begin_step": 80, "end_step": None, "duration_steps": None,
             "op_id": 1, "parent_id": None},
        ]
        return trace_document(tc, spans, {"algorithm": "abd"})

    def test_schema_and_validation(self):
        doc = self.make_doc()
        assert doc["schema"] == TRACE_SCHEMA
        assert validate_trace_document(doc) is doc
        with pytest.raises(ConfigurationError):
            validate_trace_document({"schema": "repro.trace/999"})
        with pytest.raises(ConfigurationError, match=r"spans\[1\] is not an object"):
            validate_trace_document(dict(doc, spans=[doc["spans"][0], 7]))

    def test_slice_window_and_dangling_parents(self):
        doc = self.make_doc()
        sliced = slice_document(doc, around=20, radius=15)
        assert [e["kind"] for e in sliced["events"]] == ["send", "deliver"]
        # Only the span overlapping the window survives.
        assert [s["span_id"] for s in sliced["spans"]] == [0]
        assert sliced["meta"]["slice"] == {"around": 20, "radius": 15}
        assert sliced["dropped_events"] == 1
        assert sliced["dangling_parents"] == 0
        # A slice is itself a valid, re-exportable trace document.
        chrome_trace_dict(sliced)
        narrower = slice_document(sliced, around=20, radius=3)
        assert [e["kind"] for e in narrower["events"]] == ["deliver"]
        assert narrower["dangling_parents"] == 1  # parent send sliced away

    def test_chrome_export_structure(self):
        chrome = chrome_trace_dict(self.make_doc())
        events = chrome["traceEvents"]
        by_ph = {}
        for e in events:
            by_ph.setdefault(e["ph"], []).append(e)
        names = {
            e["args"]["name"] for e in by_ph["M"]
            if e["name"] == "thread_name"
        }
        assert {"environment", "w000", "s000", "s001"} <= names
        # Spans -> X completes; the open span is orphan-flagged and
        # extended to the end of the trace.
        spans = {e["args"]["span_id"]: e for e in by_ph["X"]}
        assert spans[0]["dur"] == 15 and "orphan" not in spans[0]["args"]
        assert spans[1]["args"]["orphan"] is True
        # send->deliver becomes one s/f flow pair with matching ids.
        (start,), (finish,) = by_ph["s"], by_ph["f"]
        assert start["id"] == finish["id"]
        assert start["ts"] == 10 and finish["ts"] == 20
        # The crash is a thread-scoped instant.
        (crash,) = [e for e in by_ph["i"] if e["cat"] == "crash"]
        assert crash["s"] == "t"


CONFIG = FaultConfig(
    name="crash-recover", seed=0, crash_recovery=True, fault_target_count=1
)


def traced_run(algorithm="abd", num_ops=6):
    handle = build_client_system(algorithm, 5, 1, 6)
    tracer = TraceCollector()
    handle.world.obs = SimObserver(tracer=tracer)
    result = run_chaos_workload(handle, CONFIG, num_ops=num_ops, max_ticks=4000)
    return handle, tracer, result


class TestEndToEnd:
    def test_traced_chaos_run_narrates_everything(self):
        for algorithm in MULTI_WRITER:
            handle, tracer, result = traced_run(algorithm)
            kinds = {e.kind for e in tracer.events}
            assert {"send", "deliver", "invoke", "response", "crash", "recover",
                    "phase-begin", "phase-end", "storage"} <= kinds, algorithm
            # Every deliver's message edge points at the send of that
            # very message: same channel, same kind.
            by_id = {e.event_id: e for e in tracer.events}
            for e in tracer.events:
                if e.kind == "deliver" and "send_id" in e.extra:
                    send = by_id[e.extra["send_id"]]
                    assert send.kind == "send", algorithm
                    assert (send.src, send.dst, send.message_kind) == (
                        e.src, e.dst, e.message_kind
                    ), algorithm
            # Result carries the bounded tail.
            assert result.trace_tail, algorithm
            assert len(result.trace_tail) <= 64, algorithm

    def test_capture_task_is_deterministic(self):
        payload = {
            "algorithm": "abd",
            "config": CONFIG.to_cache_dict(),
            "n": 5, "f": 1, "value_bits": 6,
            "num_ops": 4, "max_ticks": 4000,
        }
        one = capture_trace_task(dict(payload))
        two = capture_trace_task(dict(payload))
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
        assert one["meta"]["verdict"] == "live"

    def test_capture_byte_identical_at_any_jobs(self):
        payloads = [
            {
                "algorithm": "abd",
                "config": FaultConfig(name="dups", seed=seed,
                                      duplicate_probability=0.2).to_cache_dict(),
                "n": 5, "f": 1, "value_bits": 6,
                "num_ops": 4, "max_ticks": 4000,
            }
            for seed in (0, 1)
        ]
        outputs = {}
        for jobs in (1, 4):
            docs = run_tasks(
                capture_trace_task, [dict(p) for p in payloads], jobs=jobs
            )
            outputs[jobs] = json.dumps(docs, sort_keys=True, indent=2)
        assert outputs[1] == outputs[4]


GOLDEN_TRACE = Path(__file__).resolve().parents[1] / "golden" / "trace.json"
#: Row fields the readers index directly; every other one is optional.
REQUIRED = {
    "events": {"id", "step", "kind", "process", "src", "dst", "message"},
    "spans": {"span_id", "name", "owner", "op_id", "begin_step", "end_step"},
}


def _golden_fields():
    """Every top-level field, and every field an event or span row has."""
    doc = json.loads(GOLDEN_TRACE.read_text())
    fields = {(None, name) for name in doc}
    for section in REQUIRED:
        fields.update((section, name) for row in doc[section] for name in row)
    return sorted(fields, key=lambda field: (field[0] or "", field[1]))


@pytest.mark.parametrize(
    "section, field", _golden_fields(),
    ids=lambda part: part or "doc",
)
def test_each_field_deletion_loads_or_raises_a_typed_error(tmp_path, section, field):
    doc = json.loads(GOLDEN_TRACE.read_text())
    for row in doc[section] if section else [doc]:
        del row[field]
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(doc))
    required = REQUIRED.get(section, {"schema"})
    try:
        loaded = load_trace(str(path))
        slice_document(loaded, around=40)
        chrome_trace_dict(loaded)
    except ReproError as exc:
        assert field in required and field in str(exc), exc
        if section:
            assert f"{section}[0] lacks field {field!r}" in str(exc)
    else:
        assert field not in required


#: The JSON type of every field the readers use, by section (None is
#: the document itself); the other fields may hold anything.
TYPED = {
    None: {
        "events": "a list", "spans": "a list", "meta": "an object",
        "dropped_events": "an int",
    },
    "events": {
        "id": "an int", "step": "an int", "kind": "a string",
        "process": "a string", "src": "a string", "dst": "a string",
        "message": "a string", "lamport": "an int",
        "parents": "a list of ints", "extra": "an object",
    },
    "spans": {
        "span_id": "an int", "name": "a string", "owner": "a string",
        "op_id": "an int or null", "begin_step": "an int",
        "end_step": "an int or null",
    },
}


@pytest.mark.parametrize(
    "section, field", _golden_fields(),
    ids=lambda part: part or "doc",
)
def test_each_field_of_a_wrong_type_loads_or_raises_a_typed_error(
    tmp_path, section, field
):
    doc = json.loads(GOLDEN_TRACE.read_text())
    for row in doc[section] if section else [doc]:
        row[field] = 0 if isinstance(row[field], str) else "0"
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(doc))
    expected = TYPED[section].get(field)
    try:
        loaded = load_trace(str(path))
        slice_document(loaded, around=40)
        chrome_trace_dict(loaded)
    except ReproError as exc:
        if field == "schema":
            assert "unsupported trace schema 0" in str(exc)
        else:
            where = f"{section}[0] " if section else ""
            assert f"trace {where}field {field!r} must be {expected}," in str(exc)
    else:
        assert field != "schema" and expected is None


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("events", "step", True),
        ("events", "parents", [0, "1"]),
        ("events", "extra", []),
        ("spans", "owner", None),
        ("spans", "begin_step", None),
    ],
)
def test_bool_null_and_mixed_list_values_are_rejected(section, field, value):
    doc = TestDocuments().make_doc()
    doc[section][0][field] = value
    with pytest.raises(ConfigurationError, match=rf"{section}\[0\] field '{field}'"):
        validate_trace_document(doc)
