"""Bundle replay: re-execute a failure artifact and compare verdicts.

Replay is a pure function of the bundle's behavioral fields — the
system is rebuilt through :mod:`repro.registers.catalog`, the chaos
driver re-runs with the bundle's script and timeline overriding its
seeded derivation, and the produced verdict is compared against the
bundle's expected signature.  Replays are module-level tasks on plain
payloads like the campaign's, so they fan out over the
:mod:`repro.parallel` pool and hit the content-addressed
:class:`~repro.parallel.cache.RunCache` under the campaign's key
function (:func:`~repro.faults.campaign.campaign_task_key`, which
hashes the **current** code fingerprint, so a source change
re-executes instead of returning stale verdicts).

A replay under drifted code still runs — the bundle's recorded
fingerprint is only compared to warn (``fingerprint_drift``) that a
verdict mismatch may be legitimate code evolution rather than
nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.consistency.atomicity import check_atomicity
from repro.faults.campaign import (
    ChaosRunResult,
    FaultConfig,
    FaultTimeline,
    campaign_task_key,
    run_chaos_workload,
)
from repro.parallel.cache import RunCache
from repro.parallel.fingerprint import code_fingerprint
from repro.registers.catalog import build_client_system
from repro.triage.bundle import ReproBundle, result_signature
from repro.workload.script import WorkloadScript


def replay_task_payload(bundle: ReproBundle) -> dict:
    """The declarative description of one bundle replay.

    Only behavioral fields participate: the recorded fingerprint, the
    note, the expected verdict and the attached trace tail don't change
    what executes, so they are excluded — a re-noted bundle replays
    from cache.
    """
    doc = bundle.to_json_dict()
    for key in ("fingerprint", "note", "expected", "trace_tail"):
        doc.pop(key, None)
    doc["task"] = "bundle-replay"
    return doc


def _replay_task(payload: dict) -> dict:
    """One bundle replay, from a picklable payload (pool-dispatchable)."""
    params = payload["params"]
    handle = build_client_system(
        payload["algorithm"],
        params["n"],
        params["f"],
        params["value_bits"],
        **payload.get("builder_params", {}),
    )
    script = WorkloadScript.from_json_list(payload.get("workload", ()))
    if payload["kind"] == "chaos":
        timeline_doc = payload.get("timeline")
        # Seeded-replay mode (quarantine bundles): no recorded script or
        # timeline exists, so the seed re-derives both — the campaign's
        # own execution, hang included.  A script ignores ``num_ops``.
        seeded = timeline_doc is None and len(script) == 0
        result = run_chaos_workload(
            handle,
            FaultConfig.from_cache_dict(payload["fault_config"]),
            num_ops=payload.get("num_ops") or 0,
            max_ticks=payload.get("max_ticks", 60_000),
            script=None if seeded else script,
            timeline=(
                None if seeded else FaultTimeline.from_json_dict(timeline_doc)
            ),
        )
        return {"kind": "chaos", "result": result.to_cache_dict()}
    # Explore counterexample: the recorded delivery schedule, with each
    # operation invoked once ``tick`` deliveries have been performed
    # (tick 0 = upfront) — enough to express sequential-read scenarios
    # like the new/old inversion, where a follow-up read fires
    # mid-schedule.  Channels emptied by code drift are skipped
    # (deterministically) rather than crashing the replay.
    world = handle.world
    ops = list(script)
    op_cursor = 0
    delivered = 0

    def fire_due() -> None:
        nonlocal op_cursor
        while op_cursor < len(ops) and ops[op_cursor].tick <= delivered:
            op = ops[op_cursor]
            op_cursor += 1
            if op.kind == "write":
                world.invoke_write(op.pid, op.value)
            else:
                world.invoke_read(op.pid)

    fire_due()
    for src, dst in payload.get("schedule", ()):
        if world.channel(src, dst):
            world.deliver(src, dst)
            delivered += 1
            fire_due()
    verdict = check_atomicity(list(world.operations))
    return {
        "kind": "explore",
        "safety_ok": verdict.ok,
        "safety_reason": verdict.reason,
        "invoked": len(world.operations),
        "delivered": delivered,
    }


def outcome_signature(data: dict) -> Tuple[str, ...]:
    """Failure signature of a :func:`_replay_task` result dict."""
    if data["kind"] == "chaos":
        return result_signature(ChaosRunResult.from_cache_dict(data["result"]))
    if not data["safety_ok"]:
        return ("unsafe",)
    return ("stall", "explored-safe")


@dataclass
class ReplayOutcome:
    """What one bundle replay produced, compared to its expectation."""

    bundle: ReproBundle
    signature: Tuple[str, ...]
    verdict: str
    safety_ok: bool
    safety_reason: str
    matches: bool
    fingerprint_drift: bool
    cached: bool = False
    result: Optional[ChaosRunResult] = None  # chaos replays only

    def format(self) -> str:
        lines = list(self.bundle.describe())
        lines.append(
            f"replayed: {'/'.join(self.signature)} "
            f"({'match' if self.matches else 'MISMATCH'})"
        )
        if not self.safety_ok:
            lines.append(f"safety: {self.safety_reason}")
        if self.fingerprint_drift:
            lines.append(
                "WARNING: code fingerprint drifted since the bundle was "
                "emitted; a mismatch may reflect code evolution, not "
                "nondeterminism"
            )
        return "\n".join(lines)


def execute_bundle(
    bundle: ReproBundle, cache: Optional[RunCache] = None
) -> ReplayOutcome:
    """Replay ``bundle`` and compare against its expected verdict."""
    payload = replay_task_payload(bundle)
    key = campaign_task_key(payload)
    data = cache.get(key) if cache is not None else None
    cached = data is not None
    if data is None:
        data = _replay_task(payload)
        if cache is not None:
            cache.put(key, data)
    signature = outcome_signature(data)
    result: Optional[ChaosRunResult] = None
    if data["kind"] == "chaos":
        result = ChaosRunResult.from_cache_dict(data["result"])
        verdict = result.verdict()
        safety_ok = result.safety_ok
        safety_reason = result.safety_reason
    else:
        verdict = "atomicity-violated" if not data["safety_ok"] else "explored-safe"
        safety_ok = data["safety_ok"]
        safety_reason = data["safety_reason"]
    return ReplayOutcome(
        bundle=bundle,
        signature=signature,
        verdict=verdict,
        safety_ok=safety_ok,
        safety_reason=safety_reason,
        matches=signature == bundle.expected.signature(),
        fingerprint_drift=bool(bundle.fingerprint)
        and bundle.fingerprint != code_fingerprint(),
        cached=cached,
        result=result,
    )
