"""Bundle serialization: lossless JSON round trips, schema guards."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.faults.campaign import FaultTimeline
from repro.triage.bundle import (
    BUNDLE_SCHEMA,
    ExpectedVerdict,
    ReproBundle,
    bundle_from_exploration,
    result_signature,
)
from repro.workload.script import OpDecision

from tests.triage.helpers import DEMO_CONFIG, failure_bundle, run_failure


def test_chaos_bundle_round_trips_losslessly():
    bundle = failure_bundle(DEMO_CONFIG)
    doc = bundle.to_json_dict()
    assert doc["schema"] == BUNDLE_SCHEMA
    restored = ReproBundle.from_json_dict(doc)
    assert restored == bundle
    assert restored.to_json_dict() == doc


def test_bundle_json_is_deterministic():
    a = failure_bundle(DEMO_CONFIG).to_json_dict()
    b = failure_bundle(DEMO_CONFIG).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_bundle_write_load(tmp_path):
    bundle = failure_bundle(DEMO_CONFIG)
    path = tmp_path / "demo.json"
    bundle.write(str(path))
    assert ReproBundle.load(str(path)) == bundle
    # Deterministic on-disk form: sorted keys, trailing newline.
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == bundle.to_json_dict()


def test_unknown_schema_rejected():
    bundle = failure_bundle(DEMO_CONFIG)
    doc = bundle.to_json_dict()
    doc["schema"] = "repro.bundle/999"
    with pytest.raises(ConfigurationError):
        ReproBundle.from_json_dict(doc)


CORPUS = sorted((Path(__file__).resolve().parents[1] / "corpus").glob("*.json"))


def _field_paths(doc, prefix=()):
    """Every key path in ``doc``, into nested objects too."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_each_field_deletion_loads_or_raises_a_typed_error(path):
    doc = json.loads(path.read_text())
    for field in _field_paths(doc):
        damaged = copy.deepcopy(doc)
        parent = damaged
        for key in field[:-1]:
            parent = parent[key]
        del parent[field[-1]]
        try:
            ReproBundle.from_json_dict(damaged)
        except ReproError as exc:
            assert ".".join(field) in str(exc), (field, exc)


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_null_timeline_with_a_recorded_workload_raises_a_typed_error(path):
    """A chaos bundle replays its recorded workload against its
    recorded timeline, and the seed can derive a different one, so a
    null ``timeline`` beside a workload is refused at load (replaying
    it raised a bare ``AttributeError``)."""
    doc = json.loads(path.read_text())
    assert doc["kind"] == "chaos" and doc["workload"]
    doc["timeline"] = None
    with pytest.raises(ConfigurationError, match="'timeline'"):
        ReproBundle.from_json_dict(doc)
    # Seeded mode (no workload, no timeline) still loads.
    doc["workload"] = []
    assert ReproBundle.from_json_dict(doc).timeline is None


def test_chaos_bundle_requires_fault_config():
    with pytest.raises(ConfigurationError):
        ReproBundle(
            kind="chaos",
            algorithm="abd",
            n=5,
            f=1,
            value_bits=6,
            expected=ExpectedVerdict(safety_ok=True, verdict="live"),
        )


def test_signatures_distinguish_failure_classes():
    assert ExpectedVerdict(False, "live").signature() == ("unsafe",)
    assert ExpectedVerdict(True, "partition-isolated").signature() == (
        "stall",
        "partition-isolated",
    )
    result = run_failure(DEMO_CONFIG)
    assert result_signature(result) == ("stall", result.verdict())


def test_bundle_captures_run_workload_and_timeline():
    result = run_failure(DEMO_CONFIG)
    bundle = failure_bundle(DEMO_CONFIG)
    assert tuple(bundle.workload) == result.workload
    assert bundle.timeline == result.timeline
    # Derived timeline: 2 staggered crash/recover events + the cut.
    assert bundle.event_count() == 3
    assert bundle.timeline.partition_pids  # the isolated side is explicit


def test_timeline_edits():
    timeline = FaultTimeline(
        crash_events=(("s003", 10, 50), ("s004", 30, None)),
        partition_at=40,
        heal_at=200,
        partition_pids=("r000", "s004"),
    )
    assert timeline.event_count == 4
    assert FaultTimeline.from_json_dict(timeline.to_json_dict()) == timeline


def test_explore_bundle_round_trips():
    bundle = bundle_from_exploration(
        algorithm="swmr-abd",
        n=3,
        f=1,
        value_bits=2,
        ops=[
            OpDecision(0, "w000", "write", 1),
            OpDecision(1, "r000", "read"),
        ],
        schedule=(("w000", "s000"), ("s000", "w000")),
        note="test",
    )
    assert bundle.expected.signature() == ("unsafe",)
    restored = ReproBundle.from_json_dict(bundle.to_json_dict())
    assert restored == bundle
