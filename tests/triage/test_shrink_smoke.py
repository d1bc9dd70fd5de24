"""Shrink smoke: minimize a rigged safety violation end-to-end.

The ``stale-tags`` tamper mode rewrites every tag in flight to the
bottom tag, so ABD writes never install and a later read returns the
initial value — a deterministic, replayable atomicity violation.  The
shrinker must strip the (empty) fault timeline down to nothing and the
workload down to the minimal write/read pair that exposes the bug.

Run via ``make shrink-smoke``.
"""

from __future__ import annotations

from repro.triage.replay import execute_bundle
from repro.triage.shrink import shrink_bundle

from tests.triage.helpers import RIGGED_CONFIG, failure_bundle


def test_rigged_violation_shrinks_to_minimal_pair():
    bundle = failure_bundle(RIGGED_CONFIG)
    assert bundle.expected.signature() == ("unsafe",)

    shrunk = shrink_bundle(bundle, jobs=2)

    # No crash/partition events to begin with, none after.
    assert shrunk.minimized_events == 0
    # 10 recorded ops collapse to a fixed, tiny repro (a write that the
    # tampering suppresses plus the read that observes the stale value).
    assert shrunk.minimized_ops <= 3
    assert shrunk.minimized_ops <= len(bundle.workload) // 2
    assert shrunk.signature == ("unsafe",)

    outcome = execute_bundle(shrunk.minimized)
    assert outcome.matches
    assert not outcome.safety_ok
