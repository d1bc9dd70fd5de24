"""Repro bundles: versioned, self-contained failure artifacts.

A ``repro.bundle/1`` document captures everything needed to re-execute
one failing run bit-for-bit: the algorithm and system parameters, the
:class:`~repro.faults.campaign.FaultConfig` (whose seed derives every
RNG stream by label), the exact invocation decisions the driver made
(:class:`~repro.workload.script.WorkloadScript`), the explicit fault
timeline (:class:`~repro.faults.campaign.FaultTimeline`), and the
verdict the failure produced.  The code fingerprint of the emitting
tree rides along so a replay under drifted code can warn instead of
silently diverging.

Two bundle kinds exist:

* ``"chaos"`` — a failed chaos run; replayed through
  :func:`repro.faults.campaign.run_chaos_workload` with the script and
  timeline overriding the seeded derivation.  Fully shrinkable.
* ``"explore"`` — an exploration counterexample: upfront invocations
  plus the violating delivery schedule, replayed delivery-by-delivery.
  Replayable but not shrinkable (the delivery path *is* already the
  counterexample's essence; removing a delivery invalidates the rest).

Bundles are plain JSON with sorted keys, so they diff cleanly in the
regression corpus under ``tests/corpus/``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.campaign import (
    ChaosRunResult,
    FaultConfig,
    FaultTimeline,
    campaign_builder_params,
)
from repro.parallel.fingerprint import code_fingerprint
from repro.registers.catalog import EXPERIMENT_POPULATION
from repro.workload.script import OpDecision, WorkloadScript

#: Schema tag every bundle document carries.
BUNDLE_SCHEMA = "repro.bundle/1"


def _required(data, key: str, where: str = ""):
    """``data[key]``; a missing field raises a ConfigurationError naming it."""
    if not isinstance(data, dict) or key not in data:
        raise ConfigurationError(f"bundle field '{where}{key}' is missing")
    return data[key]


@dataclass(frozen=True)
class ExpectedVerdict:
    """The failure a bundle asserts its replay must reproduce."""

    safety_ok: bool
    verdict: str  # ChaosRunResult.verdict() / "atomicity-violated"
    safety_reason: str = ""

    def signature(self) -> Tuple[str, ...]:
        """The equivalence class shrinking must preserve.

        Safety violations collapse to ``("unsafe",)`` — any atomicity
        break is the same bug class regardless of which read exposed
        it.  Liveness failures keep the diagnosis verdict, so a shrink
        can never trade a partition stall for a crash stall.
        """
        if not self.safety_ok:
            return ("unsafe",)
        return ("stall", self.verdict)

    def to_json_dict(self) -> dict:
        return {
            "safety_ok": self.safety_ok,
            "verdict": self.verdict,
            "safety_reason": self.safety_reason,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExpectedVerdict":
        return cls(
            safety_ok=_required(data, "safety_ok", "expected."),
            verdict=_required(data, "verdict", "expected."),
            safety_reason=data.get("safety_reason", ""),
        )


def result_signature(result: ChaosRunResult) -> Tuple[str, ...]:
    """The signature a finished chaos run exhibits (see ExpectedVerdict)."""
    if not result.safety_ok:
        return ("unsafe",)
    return ("stall", result.verdict())


@dataclass(frozen=True)
class ReproBundle:
    """One failing run as replayable data (``repro.bundle/1``)."""

    kind: str  # "chaos" | "explore"
    algorithm: str
    n: int
    f: int
    value_bits: int
    expected: ExpectedVerdict
    builder_params: dict = field(default_factory=dict)
    fault_config: Optional[FaultConfig] = None  # chaos only
    workload: WorkloadScript = WorkloadScript()
    timeline: Optional[FaultTimeline] = None  # chaos only
    #: Explore only: the violating delivery schedule (src, dst) pairs.
    schedule: Tuple[Tuple[str, str], ...] = ()
    #: Chaos only, seeded-replay mode: when the run never completed
    #: (quarantine) there is no recorded workload/timeline to replay, so
    #: the bundle carries the op budget instead and the replay re-derives
    #: script and timeline from the fault config's seed — exactly the
    #: campaign's own derivation.
    num_ops: Optional[int] = None
    max_ticks: int = 60_000
    #: Code fingerprint of the tree that emitted the bundle.
    fingerprint: str = ""
    note: str = ""
    #: Bounded causal-trace tail from the failing run (the newest
    #: :data:`~repro.obs.tracing.TRACE_TAIL_EVENTS` TraceEvent dicts) —
    #: context for humans, never consulted by replay/shrink.
    trace_tail: Tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("chaos", "explore"):
            raise ConfigurationError(
                f"bundle kind must be 'chaos' or 'explore', got {self.kind!r}"
            )
        if self.kind == "chaos" and self.fault_config is None:
            raise ConfigurationError("chaos bundles need a fault_config")

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": BUNDLE_SCHEMA,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "params": {"n": self.n, "f": self.f, "value_bits": self.value_bits},
            "builder_params": dict(self.builder_params),
            "fault_config": (
                None
                if self.fault_config is None
                else self.fault_config.to_cache_dict()
            ),
            "workload": self.workload.to_json_list(),
            "timeline": (
                None if self.timeline is None else self.timeline.to_json_dict()
            ),
            "schedule": [list(pair) for pair in self.schedule],
            "num_ops": self.num_ops,
            "max_ticks": self.max_ticks,
            "fingerprint": self.fingerprint,
            "expected": self.expected.to_json_dict(),
            "note": self.note,
            "trace_tail": [dict(e) for e in self.trace_tail],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReproBundle":
        if data.get("schema") != BUNDLE_SCHEMA:
            raise ConfigurationError(
                f"unsupported bundle schema {data.get('schema')!r} "
                f"(expected {BUNDLE_SCHEMA!r})"
            )
        params = _required(data, "params")
        fc = data.get("fault_config")
        tl = data.get("timeline")
        if fc is not None:
            _required(fc, "name", "fault_config.")  # the one field without a default
        kind = _required(data, "kind")
        workload = WorkloadScript.from_json_list(data.get("workload", ()))
        if kind == "chaos" and tl is None and len(workload):
            # A recorded workload replays against its recorded timeline;
            # the one the seed derives can differ from it.
            raise ConfigurationError(
                "bundle field 'timeline' is missing or null: a chaos bundle "
                "with a recorded workload needs its recorded fault timeline"
            )
        return cls(
            kind=kind,
            algorithm=_required(data, "algorithm"),
            n=_required(params, "n", "params."),
            f=_required(params, "f", "params."),
            value_bits=_required(params, "value_bits", "params."),
            builder_params=dict(data.get("builder_params", {})),
            fault_config=None if fc is None else FaultConfig.from_cache_dict(fc),
            workload=workload,
            timeline=None if tl is None else FaultTimeline.from_json_dict(tl),
            schedule=tuple(
                (pair[0], pair[1]) for pair in data.get("schedule", ())
            ),
            num_ops=data.get("num_ops"),
            max_ticks=data.get("max_ticks", 60_000),
            fingerprint=data.get("fingerprint", ""),
            expected=ExpectedVerdict.from_json_dict(_required(data, "expected")),
            note=data.get("note", ""),
            trace_tail=tuple(data.get("trace_tail", ())),
        )

    def write(self, path: str) -> None:
        """Persist as deterministic JSON (sorted keys, trailing newline)."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "ReproBundle":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    # -- editing (the shrinker's candidate constructors) ---------------------

    def with_workload(self, workload: WorkloadScript) -> "ReproBundle":
        return replace(self, workload=workload)

    def with_timeline(self, timeline: FaultTimeline) -> "ReproBundle":
        return replace(self, timeline=timeline)

    def with_fault_config(self, fault_config: FaultConfig) -> "ReproBundle":
        return replace(self, fault_config=fault_config)

    def with_note(self, note: str) -> "ReproBundle":
        return replace(self, note=note)

    def event_count(self) -> int:
        """Fault-timeline size (the shrink metric)."""
        return 0 if self.timeline is None else self.timeline.event_count

    def describe(self) -> List[str]:
        """Human-readable one-liner-per-fact view for logs."""
        lines = [
            f"{self.kind} bundle: {self.algorithm} "
            f"N={self.n} f={self.f} |V|=2^{self.value_bits}",
            f"expected: {'/'.join(self.expected.signature())} "
            f"({self.expected.verdict})",
        ]
        if self.fault_config is not None:
            lines.append(f"fault config: {self.fault_config.label()}")
        if self.timeline is not None:
            lines.extend(self.timeline.describe())
        if len(self.workload) == 0 and self.num_ops is not None:
            lines.append(f"workload: seeded, {self.num_ops} ops budgeted")
        else:
            lines.append(f"workload: {len(self.workload)} ops")
        if self.schedule:
            lines.append(f"schedule: {len(self.schedule)} deliveries")
        if self.trace_tail:
            lines.append(f"trace tail: {len(self.trace_tail)} events")
        return lines


def bundle_from_result(
    result: ChaosRunResult,
    n: int,
    f: int,
    value_bits: int,
    max_ticks: int = 60_000,
    note: str = "",
) -> ReproBundle:
    """Freeze a failed chaos run into a replayable bundle.

    The run must carry its recorded ``workload`` and ``timeline``
    (every :func:`run_chaos_workload` result does); results restored
    from pre-triage cache entries do not, and are rejected.
    """
    if result.timeline is None:
        raise ConfigurationError(
            "result carries no fault timeline (cached under an old schema?); "
            "re-run the campaign to bundle it"
        )
    return ReproBundle(
        kind="chaos",
        algorithm=result.algorithm,
        n=n,
        f=f,
        value_bits=value_bits,
        builder_params=campaign_builder_params(result.config),
        fault_config=result.config,
        workload=WorkloadScript.record(result.workload),
        timeline=result.timeline,
        max_ticks=max_ticks,
        fingerprint=code_fingerprint(),
        trace_tail=tuple(result.trace_tail),
        expected=ExpectedVerdict(
            safety_ok=result.safety_ok,
            verdict=result.verdict(),
            safety_reason=result.safety_reason,
        ),
        note=note,
    )


def bundle_from_quarantine(
    result: ChaosRunResult,
    n: int,
    f: int,
    value_bits: int,
    num_ops: int,
    max_ticks: int = 60_000,
    note: str = "",
) -> ReproBundle:
    """Freeze a quarantined run into a seeded-replay bundle.

    A quarantined run timed out on every attempt, so there is no
    recorded workload or timeline — the bundle instead carries the op
    budget and replays by re-deriving both from the fault config's
    seed, which is exactly what the campaign executed.  Replaying one
    reproduces the *hang* (under no timeout, possibly forever — run it
    under a watchdog), so quarantine bundles are for manual triage and
    are never shrunk.
    """
    return ReproBundle(
        kind="chaos",
        algorithm=result.algorithm,
        n=n,
        f=f,
        value_bits=value_bits,
        builder_params=campaign_builder_params(result.config),
        fault_config=result.config,
        num_ops=num_ops,
        max_ticks=max_ticks,
        fingerprint=code_fingerprint(),
        expected=ExpectedVerdict(safety_ok=True, verdict="quarantined"),
        note=note
        or (
            f"quarantined after {result.quarantine_attempts} timed-out "
            "execution(s); seeded replay reproduces the hang"
        ),
    )


def bundle_from_exploration(
    algorithm: str,
    n: int,
    f: int,
    value_bits: int,
    ops: List[OpDecision],
    schedule: Tuple[Tuple[str, str], ...],
    builder_params: Optional[dict] = None,
    note: str = "",
) -> ReproBundle:
    """Freeze an exploration counterexample into a replayable bundle.

    ``ops`` are the invocations with ``tick`` meaning "fire after this
    many deliveries" (0 = upfront; exploration has no driver clock, so
    the delivery count is the natural position index — it lets a bundle
    express follow-up reads fired mid-schedule, as in the new/old
    inversion).  ``schedule`` is the violating delivery path from
    :meth:`~repro.verification.explore.ExplorationResult.counterexample`,
    prefixed with any deliveries that set up the exploration's start
    state.  ``builder_params`` defaults to the population ``repro
    explore`` builds (:data:`~repro.registers.catalog.EXPERIMENT_POPULATION`).
    """
    return ReproBundle(
        kind="explore",
        algorithm=algorithm,
        n=n,
        f=f,
        value_bits=value_bits,
        builder_params=dict(
            EXPERIMENT_POPULATION if builder_params is None else builder_params
        ),
        workload=WorkloadScript.record(ops),
        schedule=tuple(schedule),
        fingerprint=code_fingerprint(),
        expected=ExpectedVerdict(
            safety_ok=False, verdict="atomicity-violated"
        ),
        note=note,
    )
