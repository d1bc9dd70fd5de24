"""Replay correctness: bit-identical re-execution, drift warnings, cache."""

from __future__ import annotations

from dataclasses import replace

from repro.faults.campaign import campaign_task_key
from repro.parallel.cache import RunCache
from repro.parallel.fingerprint import FINGERPRINT_ENV
from repro.triage.bundle import bundle_from_exploration
from repro.triage.replay import execute_bundle, replay_task_payload
from repro.verification.explore import explore_all_schedules
from repro.workload.script import OpDecision

from tests.triage.helpers import (
    DEMO_CONFIG,
    RIGGED_CONFIG,
    failure_bundle,
    run_failure,
)


def test_replay_reproduces_liveness_failure_bit_for_bit():
    original = run_failure(DEMO_CONFIG)
    bundle = failure_bundle(DEMO_CONFIG)
    outcome = execute_bundle(bundle)
    assert outcome.matches
    assert outcome.signature == ("stall", original.verdict())
    # The scripted replay consumes the adversary RNG stream identically,
    # so every field of the result — step counts, fault stats, the
    # diagnosis — matches the original run exactly.
    assert outcome.result.to_cache_dict() == original.to_cache_dict()


def test_replay_reproduces_safety_failure():
    bundle = failure_bundle(RIGGED_CONFIG)
    outcome = execute_bundle(bundle)
    assert outcome.matches
    assert outcome.signature == ("unsafe",)
    assert not outcome.safety_ok


def test_replay_mismatch_detected():
    bundle = failure_bundle(DEMO_CONFIG)
    # Claim the opposite failure class; the replay must refuse to agree.
    lying = replace(
        bundle, expected=replace(bundle.expected, safety_ok=False)
    )
    outcome = execute_bundle(lying)
    assert not outcome.matches


def test_fingerprint_drift_flagged(monkeypatch):
    bundle = failure_bundle(DEMO_CONFIG)
    assert not execute_bundle(bundle).fingerprint_drift
    monkeypatch.setenv(FINGERPRINT_ENV, "drifted-tree")
    outcome = execute_bundle(bundle)
    # Drift warns; the verdict itself still reproduces.
    assert outcome.fingerprint_drift
    assert outcome.matches


def test_replay_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv(FINGERPRINT_ENV, "pinned")
    cache = RunCache(str(tmp_path))
    bundle = failure_bundle(DEMO_CONFIG)
    cold = execute_bundle(bundle, cache=cache)
    warm = execute_bundle(bundle, cache=cache)
    assert not cold.cached and warm.cached
    assert warm.result.to_cache_dict() == cold.result.to_cache_dict()


def test_replay_key_ignores_metadata(monkeypatch):
    monkeypatch.setenv(FINGERPRINT_ENV, "pinned")
    bundle = failure_bundle(DEMO_CONFIG)
    renoted = replace(bundle, note="different note", fingerprint="other")
    assert campaign_task_key(replay_task_payload(bundle)) == campaign_task_key(
        replay_task_payload(renoted)
    )


def _inversion_world():
    """write(1) done; write(2) at one server; read1 invoked (the classic
    new/old inversion prefix for SWMR ABD without read write-back)."""
    from repro.registers.abd_swmr import build_swmr_abd_system

    handle = build_swmr_abd_system(n=3, f=1, value_bits=2, num_readers=2)
    world = handle.world
    world.invoke_write("w000", 1)
    world.deliver_all()
    world.invoke_write("w000", 2)
    world.deliver("w000", "s000")
    world.invoke_read("r000")
    return handle, world


def test_explore_counterexample_bundle_replays():
    from repro.verification.explore import ScheduleExplorer

    followups = [(2, lambda world: world.invoke_read("r001"))]
    handle, staged = _inversion_world()
    prefix = [
        (a.src, a.dst) for a in staged.trace if a.kind == "deliver"
    ]
    explorer = ScheduleExplorer(
        followups=followups, stop_at_first_violation=True, max_states=200_000
    )
    result = explorer.explore(staged)
    counterexample = result.counterexample()
    assert counterexample is not None
    path, _history = counterexample

    # Find at which delivery position the follow-up read fires: replay
    # the path the way the explorer did and watch op 2 complete.
    handle2, world2 = _inversion_world()
    followup_at = None
    for position, (src, dst) in enumerate(path):
        if followup_at is None and world2.operations[2].is_complete:
            followup_at = position
            world2.invoke_read("r001")
        world2.deliver(src, dst)
    if followup_at is None and world2.operations[2].is_complete:
        followup_at = len(path)
    assert followup_at is not None

    # Bundle ticks are delivery positions.  The staged prefix ends with
    # one delivery *after* write(2) was invoked, hence len(prefix) - 1.
    bundle = bundle_from_exploration(
        algorithm="swmr-abd",
        n=3,
        f=1,
        value_bits=2,
        ops=[
            OpDecision(0, "w000", "write", 1),
            OpDecision(len(prefix) - 1, "w000", "write", 2),
            OpDecision(len(prefix), "r000", "read"),
            OpDecision(len(prefix) + followup_at, "r001", "read"),
        ],
        schedule=tuple(prefix) + tuple(path),
        builder_params={"num_writers": 1, "num_readers": 2, "gc_depth": 1},
        note="new/old inversion",
    )
    outcome = execute_bundle(bundle)
    assert outcome.matches
    assert outcome.signature == ("unsafe",)
