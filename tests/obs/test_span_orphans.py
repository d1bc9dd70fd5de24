"""SpanTracker orphan detection under crash/recover schedules.

A span opened by a process that crashes mid-phase must be *reported* —
as a ``crash_orphans`` entry at crash time, and as an open span if
never legitimately ended — not silently dropped.
"""

from repro.faults.campaign import FaultConfig, run_chaos_workload
from repro.obs.recorder import SimObserver
from repro.obs.spans import SpanTracker
from repro.registers.catalog import build_client_system


class TestNoteCrash:
    def test_open_spans_become_crash_orphans(self):
        spans = SpanTracker()
        spans.begin("w000", "op/write", 10, op_id=0)
        spans.begin("w000", "write/query", 12)
        orphans = spans.note_crash("w000", 20)
        assert [s.name for s in orphans] == ["op/write", "write/query"]
        assert spans.crash_orphans == [
            {"owner": "w000", "name": "op/write", "span_id": 0,
             "crash_step": 20},
            {"owner": "w000", "name": "write/query", "span_id": 1,
             "crash_step": 20},
        ]

    def test_spans_stay_open_for_recovery(self):
        # The spans are *not* force-closed: a recovered process may
        # legitimately end them later, and then they are no longer
        # counted as open even though the orphan record remains.
        spans = SpanTracker()
        spans.begin("s000", "server/sync", 5)
        spans.note_crash("s000", 8)
        assert [s.name for s in spans.open_spans()] == ["server/sync"]
        ended = spans.end("s000", "server/sync", 30)
        assert ended is not None and ended.duration_steps == 25
        assert spans.open_spans() == []
        assert len(spans.crash_orphans) == 1

    def test_crash_with_nothing_open_is_quiet(self):
        spans = SpanTracker()
        assert spans.note_crash("s000", 3) == []
        assert spans.crash_orphans == []


class TestUnderChaosSchedule:
    def test_crash_recover_schedule_records_orphans(self):
        # fault_target_count=1 staggers crash/recover rounds over one
        # server; whatever that server had open at each crash must be
        # visible as a crash orphan.
        handle = build_client_system("abd", 5, 1, 6)
        observer = SimObserver()
        handle.world.obs = observer
        config = FaultConfig(
            name="crash-recover", seed=0,
            crash_recovery=True, fault_target_count=1,
        )
        result = run_chaos_workload(handle, config, num_ops=8, max_ticks=4000)
        assert result.crashes > 0
        crashed = {
            a.src for a in handle.world.trace if a.kind == "crash"
        }
        for record in observer.spans.crash_orphans:
            assert record["owner"] in crashed
        # The telemetry summary surfaces the counts (never drops them).
        orphans = result.telemetry["phase_orphans"]
        assert orphans["crash_orphans"] == len(observer.spans.crash_orphans)

    def test_mid_phase_crash_is_reported(self):
        # Crash a writer while its op/write span is open: the span
        # tracker must report it rather than silently losing the phase.
        handle = build_client_system("abd", 3, 1, 4)
        observer = SimObserver()
        world = handle.world
        world.obs = observer
        wid = handle.writer_ids[0]
        world.invoke_write(wid, 1)
        world.step()
        world.crash(wid)
        assert any(
            rec["owner"] == wid and rec["name"] == "op/write"
            for rec in observer.spans.crash_orphans
        )
        assert any(
            s.owner == wid and s.is_open for s in observer.spans.spans
        )
