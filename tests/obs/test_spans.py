"""Span nesting, orphan detection, and duration statistics."""

from repro.obs.spans import SpanTracker


class TestNesting:
    def test_child_records_parent_and_inherits_op_id(self):
        t = SpanTracker()
        op = t.begin("w1", "op/write", step=0, op_id=7)
        phase = t.begin("w1", "write/query", step=1)
        assert phase.parent_id == op.span_id
        assert phase.op_id == 7  # inherited from the enclosing span
        t.end("w1", "write/query", step=4)
        t.end("w1", "op/write", step=6)
        assert phase.duration_steps == 3
        assert op.duration_steps == 6
        assert not t.open_spans()

    def test_owners_do_not_share_stacks(self):
        t = SpanTracker()
        a = t.begin("w1", "op/write", step=0)
        b = t.begin("r1", "op/read", step=0)
        assert a.parent_id is None
        assert b.parent_id is None
        t.end("r1", "op/read", step=2)
        assert t.open_spans() == [a]

    def test_end_closes_innermost_matching_name(self):
        t = SpanTracker()
        outer = t.begin("c", "read/query", step=0)
        inner = t.begin("c", "read/query", step=2)
        closed = t.end("c", "read/query", step=5)
        assert closed is inner
        assert outer.is_open

    def test_explicit_op_id_wins_over_inherited(self):
        t = SpanTracker()
        t.begin("c", "op/read", step=0, op_id=1)
        child = t.begin("c", "read/query", step=0, op_id=99)
        assert child.op_id == 99


class TestOrphans:
    def test_unmatched_end_is_recorded_not_raised(self):
        t = SpanTracker()
        assert t.end("c", "never-begun", step=3) is None
        assert t.unmatched_ends == [
            {"owner": "c", "name": "never-begun", "step": 3}
        ]

    def test_open_spans_lists_unclosed(self):
        t = SpanTracker()
        s = t.begin("c", "op/write", step=0)
        assert t.open_spans() == [s]
        assert s.duration_steps is None
        assert s.to_json_dict()["end_step"] is None


class TestStats:
    def test_stats_cover_closed_spans_only(self):
        t = SpanTracker()
        for i, dur in enumerate((2, 4, 6)):
            t.begin("c", "write/query", step=10 * i)
            t.end("c", "write/query", step=10 * i + dur)
        t.begin("c", "write/query", step=99)  # left open: excluded
        s = t.stats()["write/query"]
        assert s["count"] == 3
        assert s["total_steps"] == 12
        assert s["mean_steps"] == 4
        assert (s["min_steps"], s["max_steps"]) == (2, 6)
        assert s["p50_steps"] == 4
        assert s["p95_steps"] == 6

    def test_no_wall_times_by_default(self):
        t = SpanTracker()
        t.begin("c", "op/read", step=0)
        t.end("c", "op/read", step=1)
        assert t.spans[0].wall_seconds is None
        assert t.wall_stats() == {}
        assert "wall_seconds" not in t.spans[0].to_json_dict()

    def test_wall_times_when_requested(self):
        t = SpanTracker(record_wall=True)
        t.begin("c", "op/read", step=0)
        t.end("c", "op/read", step=1)
        assert t.spans[0].wall_seconds >= 0
        assert t.wall_stats()["op/read"]["count"] == 1

