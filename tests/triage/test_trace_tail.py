"""Trace tails on triage bundles: attach, round-trip, survive shrinking.

Every counterexample ships with its causal history: a bounded
``TraceEvent`` tail from the failing run rides along in the bundle.
The tail is context for humans — replay and shrink must neither
consult it (cache keys exclude it) nor lose it (dataclass edits
preserve it).
"""

from __future__ import annotations

from repro.faults.campaign import run_chaos_workload
from repro.obs.recorder import SimObserver
from repro.obs.tracing import TRACE_TAIL_EVENTS, TraceCollector
from repro.registers.catalog import build_client_system
from repro.triage.bundle import ReproBundle, bundle_from_result
from repro.triage.replay import execute_bundle, replay_task_payload
from repro.triage.shrink import _bundle_items, _candidate, shrink_bundle

from tests.triage.helpers import DEMO_CONFIG, MAX_TICKS


def traced_failure_bundle() -> ReproBundle:
    handle = build_client_system("abd", 5, 1, 6)
    handle.world.obs = SimObserver(
        tracer=TraceCollector(max_events=TRACE_TAIL_EVENTS)
    )
    result = run_chaos_workload(
        handle, DEMO_CONFIG, num_ops=10, max_ticks=MAX_TICKS
    )
    assert not result.acceptable
    return bundle_from_result(
        result, n=5, f=1, value_bits=6, max_ticks=MAX_TICKS,
        note="traced failure",
    )


class TestTraceTail:
    def test_bundle_carries_bounded_tail(self):
        bundle = traced_failure_bundle()
        assert 0 < len(bundle.trace_tail) <= TRACE_TAIL_EVENTS
        # Tail rows are TraceEvent JSON dicts, newest-last.
        steps = [e["step"] for e in bundle.trace_tail]
        assert steps == sorted(steps)
        assert all("kind" in e and "lamport" in e for e in bundle.trace_tail)

    def test_round_trip_and_describe(self, tmp_path):
        bundle = traced_failure_bundle()
        path = str(tmp_path / "traced.json")
        bundle.write(path)
        loaded = ReproBundle.load(path)
        assert loaded.trace_tail == bundle.trace_tail
        assert any("trace tail" in line for line in loaded.describe())

    def test_untraced_bundles_stay_loadable(self, tmp_path):
        # Bundles written before tracing existed have no trace_tail key.
        bundle = traced_failure_bundle()
        doc = bundle.to_json_dict()
        del doc["trace_tail"]
        legacy = ReproBundle.from_json_dict(doc)
        assert legacy.trace_tail == ()

    def test_replay_payload_excludes_tail(self):
        bundle = traced_failure_bundle()
        payload = replay_task_payload(bundle)
        assert "trace_tail" not in payload
        # Identical behavior => identical cache identity, tail or not.
        bare = replay_task_payload(
            ReproBundle.from_json_dict(
                {**bundle.to_json_dict(), "trace_tail": []}
            )
        )
        assert payload == bare

    def test_edits_preserve_tail(self):
        bundle = traced_failure_bundle()
        # The shrinker's candidate constructors are dataclass replaces;
        # the tail must survive every one of them.
        assert bundle.with_note("x").trace_tail == bundle.trace_tail
        cut_free = _candidate(
            bundle,
            [item for item in _bundle_items(bundle) if item != ("partition",)],
        )
        assert cut_free.timeline.partition_at is None
        assert cut_free.trace_tail == bundle.trace_tail
        assert (
            bundle.with_workload(bundle.workload).trace_tail
            == bundle.trace_tail
        )

    def test_replay_matches_with_tail_attached(self):
        bundle = traced_failure_bundle()
        outcome = execute_bundle(bundle)
        assert outcome.matches

    def test_shrink_preserves_tail(self):
        # Acceptance: a shrunk bundle replays with its tail intact.
        bundle = traced_failure_bundle()
        shrunk = shrink_bundle(bundle)
        assert shrunk.minimized.trace_tail == bundle.trace_tail
        assert execute_bundle(shrunk.minimized).matches
