"""ddmin shrinking: the E2E acceptance demo and its guard rails.

The acceptance pipeline: a seeded chaos failure is frozen into a
bundle, the shrinker reduces its fault timeline by at least half while
preserving the *exact* failure signature, and the minimized bundle
still replays deterministically.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.triage.replay import execute_bundle
from repro.triage.shrink import _bundle_items, _candidate, shrink_bundle
from repro.workload.script import OpDecision

from tests.triage.helpers import DEMO_CONFIG, failure_bundle


def test_shrink_halves_timeline_and_preserves_signature():
    bundle = failure_bundle(DEMO_CONFIG)
    assert bundle.event_count() == 3  # 2 crash/recover events + the cut

    shrunk = shrink_bundle(bundle)

    # Acceptance: timeline reduced by >= 50% with the exact signature.
    assert shrunk.minimized_events <= bundle.event_count() // 2
    assert shrunk.minimized_ops < len(bundle.workload)
    assert shrunk.signature == bundle.expected.signature()
    assert "shrunk:" in shrunk.minimized.note
    # The search's own progress counts, as `repro shrink` prints them.
    assert (
        shrunk.rounds, shrunk.candidates, shrunk.accepted, shrunk.cache_hits
    ) == (7, 35, 4, 0)

    # The minimized bundle is itself a valid, reproducing artifact.
    outcome = execute_bundle(shrunk.minimized)
    assert outcome.matches
    assert outcome.signature == bundle.expected.signature()


def test_shrink_refuses_non_reproducing_bundle():
    bundle = failure_bundle(DEMO_CONFIG)
    lying = replace(
        bundle, expected=replace(bundle.expected, verdict="crash-stalled")
    )
    with pytest.raises(ConfigurationError):
        shrink_bundle(lying)


def test_shrink_refuses_explore_bundles():
    from repro.triage.bundle import bundle_from_exploration

    bundle = bundle_from_exploration(
        algorithm="swmr-abd",
        n=3,
        f=1,
        value_bits=2,
        ops=[OpDecision(0, "w000", "write", 1)],
        schedule=(("w000", "s000"),),
    )
    with pytest.raises(ConfigurationError):
        shrink_bundle(bundle)


def test_candidate_construction_prunes_dependent_items():
    bundle = failure_bundle(DEMO_CONFIG)
    items = _bundle_items(bundle)
    # DEMO_CONFIG: 2 crash events, a partition (no heal), 10 ops.
    assert ("partition",) in items
    assert ("heal",) not in items
    assert sum(1 for item in items if item[0] == "crash") == 2
    assert sum(1 for item in items if item[0] == "op") == 10

    # Dropping the partition clears its pid set with it.
    kept = [item for item in items if item != ("partition",)]
    candidate = _candidate(bundle, kept)
    assert candidate.timeline.partition_at is None
    assert candidate.timeline.partition_pids == ()
    assert len(candidate.workload) == 10

    # Keeping nothing yields an empty timeline and workload.
    empty = _candidate(bundle, [])
    assert empty.event_count() == 0
    assert len(empty.workload) == 0
