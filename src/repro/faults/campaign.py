"""Chaos campaigns: sweep seeded fault mixes over every register algorithm.

A campaign builds each register system (ABD, CAS, CASGC) under a grid
of :class:`FaultConfig` fault mixes — message drops, duplication,
bounded reordering, dynamic partitions (healing and permanent), and
crash-recovery timelines — drives a random workload through each, and
asserts the paper's contract empirically:

* **Safety always**: every produced history must be atomic, no matter
  the fault mix (including over-budget crashes and permanent
  partitions).
* **Liveness within the budget**: every invoked operation must complete
  whenever concurrently-failed servers stay within ``f``, loss is
  confined to at most ``f`` servers, and partitions heal.
* **No silent hangs**: when liveness legitimately fails (over-budget
  crashes, unhealed partitions), the watchdog must produce a structured
  :class:`~repro.faults.watchdog.Diagnosis` instead of a timeout.

``python -m repro chaos`` runs a campaign from the command line and
writes the summary report into ``benchmarks/results/``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.consistency.atomicity import check_atomicity
from repro.consistency.history import History
from repro.errors import ConfigurationError, StuckExecutionError
from repro.faults.adversary import (
    BYZANTINE_ROLE_NAMES,
    AdversaryConfig,
    ByzantineConfig,
    ChannelAdversary,
    Partition,
)
from repro.faults.recovery import CrashRecoverySchedule
from repro.faults.watchdog import Diagnosis, LivenessWatchdog
from repro.obs.analytics import run_telemetry
from repro.obs.recorder import SimObserver
from repro.obs.tracing import TraceCollector, TRACE_TAIL_EVENTS
from repro.parallel.cache import RunCache
from repro.parallel.fingerprint import code_fingerprint
from repro.parallel.journal import CampaignJournal
from repro.parallel.pool import DEFAULT_MAX_RETRIES, run_tasks
from repro.parallel.stats import ENGINE_STATS
from repro.registers.base import SystemHandle
from repro.registers.catalog import MULTI_WRITER, build_client_system
from repro.util.rng import SeededRNG
from repro.util.tables import format_table
from repro.workload.script import OpDecision, WorkloadScript

@dataclass(frozen=True)
class FaultConfig:
    """One seeded fault mix, declarative and algorithm-agnostic.

    Process ids are resolved against the built system (all builders use
    the canonical ``s00i``/``w00i``/``r00i`` naming).  ``expect_liveness``
    encodes the paper's contract for this mix: True means every invoked
    operation must terminate; False means the mix intentionally exceeds
    the fault budget (or never heals), so stalls are legitimate — but
    must be *diagnosed*, never silent.
    """

    name: str
    seed: int = 0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    reorder_window: int = 4
    #: How many servers are fault targets (lossy and/or crash-recovering).
    #: Kept within ``f`` for expect_liveness mixes.
    fault_target_count: int = 0
    partition_at: Optional[int] = None  # driver tick; None = no partition
    heal_at: Optional[int] = None  # None with partition_at set = never heals
    crash_recovery: bool = False  # stagger crash/recover over the targets
    crash_over_budget: bool = False  # deliberately crash f+1 servers
    expect_liveness: bool = True
    #: Rigged-adversary mode (see AdversaryConfig.tamper_mode).  Never
    #: set by any campaign shape; used by triage tests to inject a
    #: known, replayable safety violation.
    tamper_mode: str = ""
    #: Byzantine band: how many servers behave arbitrarily (the *first*
    #: ones, disjoint from the crash/lossy targets, which are the last).
    byzantine_count: int = 0
    #: Corruption roles cycled over the Byzantine servers; empty means
    #: the full default cycle (see BYZANTINE_ROLE_NAMES).
    byzantine_roles: Tuple[str, ...] = ()
    #: The budget ``b`` the *protocol* defends against (quorum
    #: escalation + validation).  -1 means "equals byzantine_count";
    #: an explicit 0 with byzantine_count > 0 builds unprotected
    #: clients — the safety-violation fixture for triage tests.
    byzantine_budget: int = -1

    def resolved_byzantine_budget(self) -> int:
        """The protocol-side budget this config implies."""
        if self.byzantine_budget < 0:
            return self.byzantine_count
        return self.byzantine_budget

    def label(self) -> str:
        return f"{self.name}#{self.seed}"

    def to_cache_dict(self) -> dict:
        """Plain-JSON form: cache keys, ``--json`` reports, bundles."""
        data = dataclasses.asdict(self)
        # Emit the JSON-native form so in-memory and disk round-trips
        # compare equal.
        data["byzantine_roles"] = list(self.byzantine_roles)
        return data

    @classmethod
    def from_cache_dict(cls, data: dict) -> "FaultConfig":
        data = dict(data)
        # JSON round-trips tuples as lists; restore the frozen form.
        data["byzantine_roles"] = tuple(data.get("byzantine_roles", ()))
        return cls(**data)


#: The campaign's fault-shape grid: (name, overrides).  Ten shapes, so
#: ``seeds >= 2`` gives every algorithm at least 20 seeded configs.
FAULT_SHAPES: Tuple[Tuple[str, dict], ...] = (
    ("clean", {}),
    ("drops", {"drop_probability": 0.3, "fault_target_count": -1}),
    ("dups", {"duplicate_probability": 0.2}),
    # Mild duplication deepens the queues so reordering has something
    # to act on (fair delivery keeps reliable FIFO channels shallow).
    (
        "reorder",
        {
            "reorder_probability": 0.6,
            "reorder_window": 4,
            "duplicate_probability": 0.15,
        },
    ),
    ("partition-heal", {"partition_at": 40, "heal_at": 240}),
    ("crash-recover", {"crash_recovery": True, "fault_target_count": -1}),
    (
        "lossy-crashy",
        {
            "drop_probability": 0.25,
            "crash_recovery": True,
            "fault_target_count": -1,
        },
    ),
    (
        "kitchen-sink",
        {
            "drop_probability": 0.2,
            "duplicate_probability": 0.1,
            "reorder_probability": 0.3,
            "crash_recovery": True,
            "fault_target_count": -1,
            "partition_at": 60,
            "heal_at": 260,
        },
    ),
    (
        "partition-forever",
        {"partition_at": 40, "heal_at": None, "expect_liveness": False},
    ),
    ("crash-over-budget", {"crash_over_budget": True, "expect_liveness": False}),
)

#: The Byzantine band: appended to the grid only when a campaign opts
#: in (``repro chaos --byzantine f_b``), so the default grid — and the
#: coverage tests pinned to ``FAULT_SHAPES`` — is unchanged.  Each
#: shape's ``byzantine_count`` is filled in by
#: :func:`generate_fault_configs`.
BYZANTINE_SHAPES: Tuple[Tuple[str, dict], ...] = (
    # One shape per corruption role, to attribute any degradation.
    ("byz-equivocate", {"byzantine_roles": ("equivocate",)}),
    ("byz-stale-replay", {"byzantine_roles": ("stale-replay",)}),
    ("byz-garbage", {"byzantine_roles": ("garbage",)}),
    ("byz-ack-drop", {"byzantine_roles": ("ack-drop",)}),
    # The default role cycle, plus composition with the other bands.
    ("byz-mixed", {}),
    ("byz-partition-heal", {"partition_at": 40, "heal_at": 240}),
    # Byzantine + crashed servers exceed what the escalated quorum can
    # absorb; liveness may legitimately fail but must be diagnosed.
    (
        "byz-crash",
        {
            "crash_recovery": True,
            "fault_target_count": -1,
            "expect_liveness": False,
        },
    ),
)


def generate_fault_configs(
    f: int, seeds: Sequence[int], byzantine: int = 0
) -> List[FaultConfig]:
    """The campaign grid: every fault shape at every seed.

    A ``fault_target_count`` of -1 in a shape means "the full budget
    ``f``"; it is resolved here.  ``byzantine > 0`` appends the
    Byzantine band with that many corrupt servers per run.
    """
    shapes = list(FAULT_SHAPES)
    if byzantine > 0:
        shapes.extend(
            (name, {**overrides, "byzantine_count": byzantine})
            for name, overrides in BYZANTINE_SHAPES
        )
    configs: List[FaultConfig] = []
    for seed in seeds:
        for name, overrides in shapes:
            resolved = dict(overrides)
            if resolved.get("fault_target_count") == -1:
                resolved["fault_target_count"] = f
            configs.append(FaultConfig(name=name, seed=seed, **resolved))
    return configs


# -- per-run wiring ----------------------------------------------------------


def _fault_targets(config: FaultConfig, handle: SystemHandle) -> List[str]:
    """The servers subject to loss/crash-recovery (the last ones, so the
    low-indexed servers form an always-reliable quorum)."""
    count = min(config.fault_target_count, handle.f)
    return handle.server_ids[handle.n - count :] if count else []


def _adversary_for(config: FaultConfig, handle: SystemHandle) -> ChannelAdversary:
    byzantine = None
    if config.byzantine_count > 0:
        # The *first* servers go Byzantine, disjoint from the crash/lossy
        # targets (the last ones), so the bands compose without a server
        # being both crashed and corrupt.
        byzantine = ByzantineConfig(
            servers=tuple(handle.server_ids[: config.byzantine_count]),
            roles=config.byzantine_roles or BYZANTINE_ROLE_NAMES,
            seed=config.seed,
        )
    return ChannelAdversary(
        AdversaryConfig(
            drop_probability=config.drop_probability,
            duplicate_probability=config.duplicate_probability,
            reorder_probability=config.reorder_probability,
            reorder_window=config.reorder_window,
            lossy_processes=frozenset(_fault_targets(config, handle)),
            tamper_mode=config.tamper_mode,
            byzantine=byzantine,
        ),
        seed=config.seed,
    )


def _partition_for(config: FaultConfig, handle: SystemHandle) -> Partition:
    """Isolate one reader plus one server: the cut client's operations
    stall until the heal (or forever), the rest keep a full quorum."""
    return Partition.isolate([handle.reader_ids[0], handle.server_ids[-1]])


def _schedule_for(config: FaultConfig, handle: SystemHandle) -> CrashRecoverySchedule:
    events: List[Tuple[str, int, Optional[int]]] = []
    if config.crash_over_budget:
        for sid in handle.server_ids[: handle.f + 1]:
            events.append((sid, 25, None))
        return CrashRecoverySchedule(tuple(events))
    if config.crash_recovery:
        for j, sid in enumerate(_fault_targets(config, handle)):
            start = 30 + 25 * j
            # Two crash/recover rounds: cumulative crashes exceed f while
            # concurrent downs never do — liveness must survive.
            events.append((sid, start, start + 80))
            events.append((sid, start + 160, start + 240))
    schedule = CrashRecoverySchedule(tuple(events))
    schedule.validate(handle.world, handle.f)
    return schedule


@dataclass(frozen=True)
class FaultTimeline:
    """The explicit fault schedule a chaos run executes.

    :func:`run_chaos_workload` normally *derives* this from the
    :class:`FaultConfig` (staggered crash/recover rounds over the fault
    targets, one partition cut); materializing it as plain data makes
    the timeline **editable** — the fault half of the triage shrinker
    (:mod:`repro.triage.shrink`) removes crash events and the partition
    one at a time while checking the failure persists.  JSON
    round-trippable for ``repro.bundle/1`` artifacts.
    """

    #: ``(pid, crash_tick, recover_tick-or-None)`` triples.
    crash_events: Tuple[Tuple[str, int, Optional[int]], ...] = ()
    partition_at: Optional[int] = None
    heal_at: Optional[int] = None
    #: The isolated side of the cut; empty = no partition.
    partition_pids: Tuple[str, ...] = ()

    @classmethod
    def derived_from(
        cls, config: FaultConfig, handle: SystemHandle
    ) -> "FaultTimeline":
        """Materialize the schedule ``run_chaos_workload`` would derive."""
        schedule = _schedule_for(config, handle)
        pids: Tuple[str, ...] = ()
        if config.partition_at is not None:
            pids = tuple(sorted(_partition_for(config, handle).groups[0]))
        return cls(
            crash_events=schedule.events,
            partition_at=config.partition_at,
            heal_at=config.heal_at if config.partition_at is not None else None,
            partition_pids=pids,
        )

    def schedule(self) -> CrashRecoverySchedule:
        """The crash half as an executable schedule.

        Deliberately *not* validated against the fault budget: derived
        timelines were validated at derivation (except the intentional
        over-budget shape), and shrunk timelines are arbitrary subsets.
        """
        return CrashRecoverySchedule(self.crash_events)

    def partition(self) -> Optional[Partition]:
        if self.partition_at is None or not self.partition_pids:
            return None
        return Partition.isolate(self.partition_pids)

    @property
    def event_count(self) -> int:
        """Shrink metric: crash/recover pairs + partition + heal."""
        count = len(self.crash_events)
        if self.partition_at is not None:
            count += 1
        if self.heal_at is not None:
            count += 1
        return count

    def to_json_dict(self) -> dict:
        return {
            "crash_events": [list(e) for e in self.crash_events],
            "partition_at": self.partition_at,
            "heal_at": self.heal_at,
            "partition_pids": list(self.partition_pids),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FaultTimeline":
        return cls(
            crash_events=tuple(
                (e[0], e[1], e[2]) for e in data.get("crash_events", ())
            ),
            partition_at=data.get("partition_at"),
            heal_at=data.get("heal_at"),
            partition_pids=tuple(data.get("partition_pids", ())),
        )

    def describe(self) -> List[str]:
        """One line per timeline event, for shrink logs."""
        lines = []
        for pid, crash, recover in self.crash_events:
            back = f", recover @{recover}" if recover is not None else ""
            lines.append(f"crash {pid} @{crash}{back}")
        if self.partition_at is not None:
            cut = ",".join(self.partition_pids)
            lines.append(f"partition [{cut}] @{self.partition_at}")
        if self.heal_at is not None:
            lines.append(f"heal @{self.heal_at}")
        return lines


@dataclass
class ChaosRunResult:
    """Outcome of one (algorithm, fault config) chaos run."""

    algorithm: str
    config: FaultConfig
    invoked: int
    completed: int
    live: bool
    safety_ok: bool
    safety_reason: str
    diagnosis: Optional[Diagnosis]
    steps: int
    fault_stats: dict = field(default_factory=dict)
    crashes: int = 0
    recoveries: int = 0
    #: Corrupt responses clients *detected and masked* (proof-positive
    #: evidence only; see the register validation paths).
    byzantine_detected: int = 0
    #: The exact invocation decisions this run made (replayable script).
    workload: Tuple[OpDecision, ...] = ()
    #: The explicit fault schedule this run executed (shrinkable).
    timeline: Optional[FaultTimeline] = None
    #: Per-run telemetry (phases/storage/counters) from an instrumented
    #: run (``run_campaign(telemetry=True)``); None when tracing was off.
    telemetry: Optional[dict] = None
    #: Bounded causal-trace tail (``TraceEvent.to_json_dict`` rows) —
    #: the last :data:`~repro.obs.tracing.TRACE_TAIL_EVENTS` events.
    trace_tail: Tuple[dict, ...] = ()
    #: True when the run never completed: it exceeded the per-run
    #: ``--task-timeout`` on every attempt and the engine recorded
    #: this placeholder instead of aborting the campaign.  Quarantined
    #: results are journaled but never cached (the cache key does not
    #: include the timeout policy) and never claim anything about
    #: safety or liveness.
    quarantined: bool = False
    #: How many timed-out executions the quarantine took.
    quarantine_attempts: int = 0

    @property
    def acceptable(self) -> bool:
        """Does this run satisfy the campaign contract?"""
        if self.quarantined:
            # The run produced no evidence either way — a campaign with
            # quarantined runs cannot claim its contract held.
            return False
        if not self.safety_ok:
            return False
        if self.config.expect_liveness:
            return self.live
        # Liveness may legitimately fail here, but never silently.
        return self.live or self.diagnosis is not None

    @property
    def degraded(self) -> bool:
        """Live and safe, but only because corruption was masked."""
        return self.live and self.safety_ok and self.byzantine_detected > 0

    def verdict(self) -> str:
        if self.quarantined:
            return "quarantined"
        if self.degraded:
            return "degraded"
        if self.live:
            return "live"
        return self.diagnosis.verdict if self.diagnosis else "silent-hang"

    # -- cache round-trip ----------------------------------------------------

    def to_cache_dict(self) -> dict:
        """JSON-safe serialization carrying every report-relevant field.

        The round trip is lossless with respect to both report formats:
        ``CampaignReport.format()`` and ``to_json_dict()`` produce
        byte-identical output from a restored result.
        """
        return {
            "algorithm": self.algorithm,
            "config": self.config.to_cache_dict(),
            "invoked": self.invoked,
            "completed": self.completed,
            "live": self.live,
            "safety_ok": self.safety_ok,
            "safety_reason": self.safety_reason,
            "diagnosis": (
                None if self.diagnosis is None else self.diagnosis.to_json_dict()
            ),
            "steps": self.steps,
            "fault_stats": dict(self.fault_stats),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "byzantine_detected": self.byzantine_detected,
            "workload": [op.to_json_dict() for op in self.workload],
            "timeline": (
                None if self.timeline is None else self.timeline.to_json_dict()
            ),
            "telemetry": self.telemetry,
            "trace_tail": [dict(e) for e in self.trace_tail],
            "quarantined": self.quarantined,
            "quarantine_attempts": self.quarantine_attempts,
        }

    @classmethod
    def from_cache_dict(cls, data: dict) -> "ChaosRunResult":
        """Rebuild a result from :meth:`to_cache_dict` output.

        A missing field (``config.name`` and the diagnosis fields
        included) raises :class:`~repro.errors.ConfigurationError`
        naming it, so a damaged journal or cache entry is a miss that
        :func:`run_campaign` re-executes, never a crash.
        """
        for key in (
            "algorithm", "config", "invoked", "completed", "live", "safety_ok",
            "safety_reason", "diagnosis", "steps", "fault_stats", "crashes",
            "recoveries",
        ):
            if key not in data:
                raise ConfigurationError(f"chaos result field {key!r} is missing")
        if "name" not in data["config"]:
            raise ConfigurationError("chaos result field 'config.name' is missing")
        diag = data["diagnosis"]
        timeline = data.get("timeline")
        return cls(
            algorithm=data["algorithm"],
            config=FaultConfig.from_cache_dict(data["config"]),
            invoked=data["invoked"],
            completed=data["completed"],
            live=data["live"],
            safety_ok=data["safety_ok"],
            safety_reason=data["safety_reason"],
            diagnosis=None if diag is None else Diagnosis.from_json_dict(diag),
            steps=data["steps"],
            fault_stats=dict(data["fault_stats"]),
            crashes=data["crashes"],
            recoveries=data["recoveries"],
            byzantine_detected=data.get("byzantine_detected", 0),
            workload=tuple(
                OpDecision.from_json_dict(d) for d in data.get("workload", ())
            ),
            timeline=(
                None if timeline is None else FaultTimeline.from_json_dict(timeline)
            ),
            telemetry=data.get("telemetry"),
            trace_tail=tuple(data.get("trace_tail", ())),
            quarantined=data.get("quarantined", False),
            quarantine_attempts=data.get("quarantine_attempts", 0),
        )


def run_chaos_workload(
    handle: SystemHandle,
    config: FaultConfig,
    num_ops: int = 10,
    max_ticks: int = 60_000,
    script: Optional[WorkloadScript] = None,
    timeline: Optional[FaultTimeline] = None,
) -> ChaosRunResult:
    """Drive a seeded random workload under ``config``'s fault mix.

    The driver owns the fault timeline clock (watchdog ticks): crash,
    recover, partition and heal events fire by tick even while the
    World momentarily cannot step.  A stall is only declared hopeless —
    and diagnosed — once no future timeline event could unblock it.

    Every run records its invocation decisions into the result's
    ``workload`` and its fault schedule into ``timeline``, making the
    run replayable *as data*.  Passing ``script``/``timeline`` back in
    overrides the seeded derivation: the driver performs exactly one
    action per tick (invoke or step), so replaying the recorded
    decisions consumes the adversary RNG stream identically and the
    execution is bit-for-bit the original.  *Edited* scripts and
    timelines (the shrinker's candidates) stay fully deterministic —
    the run is a pure function of (system, config, script, timeline).
    """
    world = handle.world
    adversary = _adversary_for(config, handle)
    world.adversary = adversary
    if timeline is None:
        timeline = FaultTimeline.derived_from(config, handle)
    schedule = timeline.schedule()
    partition = timeline.partition()
    # An edited timeline may name a cut tick with no pids (or vice
    # versa); treat it as "no partition" so the stall checks below
    # never wait on an event that cannot fire.
    partition_at = timeline.partition_at if partition is not None else None
    heal_at = timeline.heal_at if partition is not None else None
    applied: set = set()
    rng = SeededRNG(config.seed, f"chaos-driver:{config.name}")
    watchdog = LivenessWatchdog(
        world, quorum=handle.params.get("quorum"), max_ticks=max_ticks
    )
    clients = list(handle.writer_ids) + list(handle.reader_ids)
    steps_before = world.step_count
    invoked = 0
    next_op = 0  # script cursor (scripted mode only)
    partition_started = healed = False
    diagnosis: Optional[Diagnosis] = None
    decisions: List[OpDecision] = []

    def idle_clients() -> List[str]:
        return [
            pid
            for pid in clients
            if world.process(pid).pending_op_id is None  # type: ignore[attr-defined]
            and not world.process(pid).failed
        ]

    def can_invoke(pid: str) -> bool:
        proc = world.process(pid)
        return proc.pending_op_id is None and not proc.failed  # type: ignore[attr-defined]

    def more_invocations_ahead() -> bool:
        if script is not None:
            return next_op < len(script.ops)
        return invoked < num_ops and bool(idle_clients())

    while True:
        try:
            watchdog.tick()
        except StuckExecutionError as exc:
            diagnosis = exc.diagnosis
            break
        tick = watchdog.ticks
        schedule.apply(world, tick, applied)
        if (
            partition is not None
            and partition_at is not None
            and not partition_started
            and tick >= partition_at
        ):
            adversary.start_partition(partition)
            partition_started = True
            if world.obs:
                world.obs.on_partition(
                    world, timeline.partition_pids, tick=tick
                )
        if heal_at is not None and not healed and tick >= heal_at:
            adversary.heal_partition()
            healed = True
            if world.obs:
                world.obs.on_heal(world, tick=tick)
        if script is not None:
            # Scripted mode: fire each decision at its recorded tick.
            # Under an edited script the world may have diverged and the
            # client can be busy/failed; the op is then skipped (still
            # deterministically) rather than crashing the candidate run.
            if next_op < len(script.ops) and script.ops[next_op].tick <= tick:
                op = script.ops[next_op]
                next_op += 1
                if can_invoke(op.pid):
                    if op.kind == "write":
                        world.invoke_write(op.pid, op.value)
                    else:
                        world.invoke_read(op.pid)
                    decisions.append(
                        OpDecision(tick, op.pid, op.kind, op.value)
                    )
                    invoked += 1
                    continue
        elif invoked < num_ops and rng.random() < 0.4:
            pool = idle_clients()
            if pool:
                pid = rng.choice(pool)
                if pid in handle.writer_ids:
                    value = rng.randint(0, handle.value_space_size - 1)
                    world.invoke_write(pid, value)
                    decisions.append(OpDecision(tick, pid, "write", value))
                else:
                    world.invoke_read(pid)
                    decisions.append(OpDecision(tick, pid, "read"))
                invoked += 1
                continue
        if world.step() is not None:
            continue
        # Nothing delivered this tick.
        if not more_invocations_ahead() and not world.pending_operations():
            break  # all done
        if partition_at is not None and not partition_started:
            continue  # partition (and its heal) still ahead
        if heal_at is not None and not healed:
            continue  # a heal will re-enable the blocked channels
        if not schedule.done(applied):
            continue  # a scheduled crash/recovery is still ahead
        if more_invocations_ahead():
            continue  # more invocations coming
        diagnosis = watchdog.diagnose()
        break

    history = History.from_world(world)
    completed = len(history.completed())
    target_ops = len(script.ops) if script is not None else num_ops
    attempted = next_op if script is not None else invoked
    live = attempted == target_ops and completed == len(history)
    verdict = check_atomicity(history)
    crashes = sum(1 for a in world.trace if a.kind == "crash")
    recoveries = sum(1 for a in world.trace if a.kind == "recover")
    byzantine_detected = sum(
        getattr(world.process(pid), "byz_detected", 0) for pid in clients
    )
    result = ChaosRunResult(
        algorithm=handle.algorithm,
        config=config,
        invoked=invoked,
        completed=completed,
        live=live,
        safety_ok=verdict.ok,
        safety_reason=verdict.reason,
        diagnosis=None if live else diagnosis,
        steps=world.step_count - steps_before,
        fault_stats=adversary.stats(),
        crashes=crashes,
        recoveries=recoveries,
        byzantine_detected=byzantine_detected,
        workload=tuple(decisions),
        timeline=timeline,
    )
    obs = world.obs
    if obs:
        # Verdict counter first, so the telemetry counter snapshot
        # includes it.  Analytics buckets verdicts by ``r.verdict()``,
        # not by this counter.
        obs.registry.inc("faults.verdict." + result.verdict())
        result.telemetry = run_telemetry(
            obs,
            operations=world.operations,
            symbol_bits=handle.params.get("symbol_bits"),
            gc_depth=handle.params.get("gc_depth"),
        )
        if obs.tracer:
            result.trace_tail = tuple(obs.tracer.tail_json())
    return result


# -- the campaign ------------------------------------------------------------


@dataclass
class CampaignReport:
    """All runs of a chaos campaign plus the pass/fail roll-up."""

    n: int
    f: int
    value_bits: int
    num_ops: int
    results: List[ChaosRunResult] = field(default_factory=list)
    #: Engine-counter delta for this campaign (``parallel.timeouts`` /
    #: ``retries`` / ``quarantined`` / ``fallbacks``).  All zero on a
    #: healthy engine, so byte-determinism across job counts is
    #: untouched; nonzero counters *should* change the bytes — that is
    #: the point.
    runtime: Dict[str, int] = field(default_factory=dict)
    #: True when the campaign was interrupted (SIGINT) and ``results``
    #: holds only the completed prefix; resume from the journal.
    interrupted: bool = False

    def failures(self) -> List[ChaosRunResult]:
        return [r for r in self.results if not r.acceptable]

    def quarantined(self) -> List[ChaosRunResult]:
        return [r for r in self.results if r.quarantined]

    @property
    def passed(self) -> bool:
        return not self.failures()

    def configs_per_algorithm(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.results:
            counts[r.algorithm] = counts.get(r.algorithm, 0) + 1
        return counts

    HEADERS = (
        "algorithm",
        "config",
        "seed",
        "ops",
        "done",
        "verdict",
        "safe",
        "losses",
        "dups",
        "reorders",
        "byz",
        "crashes",
        "recoveries",
        "steps",
        "peak-bits",
    )

    @staticmethod
    def _peak_bits(r: ChaosRunResult) -> str:
        """Telemetry-sourced peak storage, "-" for uninstrumented runs."""
        peak = (r.telemetry or {}).get("storage", {}).get("peak_total_bits")
        return "-" if peak is None else f"{peak:g}"

    def rows(self) -> List[tuple]:
        return [
            (
                r.algorithm,
                r.config.name,
                r.config.seed,
                r.invoked,
                r.completed,
                r.verdict(),
                "ok" if r.safety_ok else "VIOLATED",
                r.fault_stats.get("drops", 0),
                r.fault_stats.get("duplicates", 0),
                r.fault_stats.get("reorders", 0),
                r.fault_stats.get("byzantine_corruptions", 0),
                r.crashes,
                r.recoveries,
                r.steps,
                self._peak_bits(r),
            )
            for r in self.results
        ]

    def format(self) -> str:
        lines = [
            f"chaos campaign: N={self.n}, f={self.f}, "
            f"value_bits={self.value_bits}, ops/run={self.num_ops}",
            "",
            format_table(self.HEADERS, self.rows()),
            "",
        ]
        counts = self.configs_per_algorithm()
        for algorithm in sorted(counts):
            lines.append(f"{algorithm}: {counts[algorithm]} fault configs")
        quarantined = self.quarantined()
        stalls = [
            r for r in self.results if not r.live and not r.quarantined
        ]
        degraded = [r for r in self.results if r.degraded]
        runs_line = (
            f"runs: {len(self.results)} total, "
            f"{len(self.results) - len(stalls) - len(quarantined)} live "
            f"({len(degraded)} degraded), {len(stalls)} diagnosed stalls"
        )
        if quarantined:
            runs_line += f", {len(quarantined)} quarantined"
        lines.append(runs_line)
        if any(self.runtime.values()):
            lines.append(
                "engine: "
                f"{self.runtime.get('parallel.timeouts', 0)} timeout(s), "
                f"{self.runtime.get('parallel.retries', 0)} retry(ies), "
                f"{self.runtime.get('parallel.quarantined', 0)} "
                "quarantined, "
                f"{self.runtime.get('parallel.fallbacks', 0)} serial "
                "fallback(s)"
            )
        if self.interrupted:
            lines.append(
                f"campaign INTERRUPTED — partial report "
                f"({len(self.results)} completed run(s)); resume from the "
                "journal to finish"
            )
        else:
            lines.append(f"campaign {'PASSED' if self.passed else 'FAILED'}")
        for r in self.failures():
            lines.append(
                f"  FAIL {r.algorithm}/{r.config.label()}: "
                f"safety={'ok' if r.safety_ok else r.safety_reason}, "
                f"verdict={r.verdict()}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """Machine-readable campaign summary (``repro chaos --json``).

        Deterministic for a fixed parameter set: no wall clock, no
        environment capture, stable key order under
        ``json.dumps(sort_keys=True)``.
        """
        stalls = [
            r for r in self.results if not r.live and not r.quarantined
        ]
        quarantined = self.quarantined()
        verdicts: Dict[str, int] = {}
        for r in self.results:
            v = r.verdict()
            verdicts[v] = verdicts.get(v, 0) + 1
        return {
            "schema": "repro.chaos/1",
            "params": {
                "n": self.n,
                "f": self.f,
                "value_bits": self.value_bits,
                "num_ops": self.num_ops,
            },
            "passed": self.passed,
            "interrupted": self.interrupted,
            # Engine-counter delta (all zero on a healthy engine, so
            # byte-identity across --jobs/--chunk still holds).
            "runtime": {
                name: self.runtime.get(name, 0)
                for name in (
                    "parallel.timeouts",
                    "parallel.retries",
                    "parallel.quarantined",
                    "parallel.fallbacks",
                )
            },
            "summary": {
                "runs": len(self.results),
                "live": len(self.results) - len(stalls) - len(quarantined),
                "degraded": sum(1 for r in self.results if r.degraded),
                "diagnosed_stalls": len(stalls),
                "quarantined": len(quarantined),
                "failures": len(self.failures()),
                "configs_per_algorithm": self.configs_per_algorithm(),
                # Uniform safe/degraded/unsafe bucketing: analytics and
                # external consumers read this instead of re-parsing
                # report text.
                "verdicts": {k: verdicts[k] for k in sorted(verdicts)},
            },
            # Triage-ready failure entries: everything needed to rebuild
            # the failing run (seed + full fault config) plus the human
            # summary, without digging through the runs array.
            "failures": [
                {
                    "algorithm": r.algorithm,
                    "config": r.config.label(),
                    "seed": r.config.seed,
                    "fault_config": r.config.to_cache_dict(),
                    "verdict": r.verdict(),
                    "safety_ok": r.safety_ok,
                    "safety_reason": r.safety_reason,
                    "quarantined": r.quarantined,
                    "diagnosis_summary": (
                        r.diagnosis.summary() if r.diagnosis else None
                    ),
                }
                for r in self.failures()
            ],
            "runs": [
                {
                    "algorithm": r.algorithm,
                    "config": r.config.to_cache_dict(),
                    "invoked": r.invoked,
                    "completed": r.completed,
                    "live": r.live,
                    "verdict": r.verdict(),
                    "safety_ok": r.safety_ok,
                    "safety_reason": r.safety_reason,
                    "diagnosis": (
                        None
                        if r.diagnosis is None
                        else {
                            **r.diagnosis.to_json_dict(),
                            "summary": r.diagnosis.summary(),
                        }
                    ),
                    "fault_stats": dict(r.fault_stats),
                    "crashes": r.crashes,
                    "recoveries": r.recoveries,
                    "byzantine_detected": r.byzantine_detected,
                    "steps": r.steps,
                    "acceptable": r.acceptable,
                    "quarantined": r.quarantined,
                    "peak_total_bits": (
                        (r.telemetry or {})
                        .get("storage", {})
                        .get("peak_total_bits")
                    ),
                }
                for r in self.results
            ],
        }


def campaign_builder_params(config: FaultConfig) -> dict:
    """The :func:`build_client_system` keywords of a campaign run.

    Two writers, two readers, CASGC at depth 2, plus the protocol's
    Byzantine budget whenever ``config`` has a Byzantine band or an
    explicit budget (an explicit 0 builds unprotected clients).  Chaos
    bundles store this dict, so a replay rebuilds the campaign's system.
    """
    params = {"num_writers": 2, "num_readers": 2, "gc_depth": 2}
    budget = config.resolved_byzantine_budget()
    if budget or config.byzantine_count:
        params["byzantine_budget"] = budget
    return params


def _campaign_task(payload: dict) -> dict:
    """One (algorithm, fault config) run, from a picklable payload.

    Module-level so the worker pool can dispatch it by reference; the
    payload is the same plain-JSON dict the cache key hashes, so the
    parallel path and the cache share one task representation.
    """
    config = FaultConfig.from_cache_dict(payload["config"])
    handle = build_client_system(
        payload["algorithm"],
        payload["n"],
        payload["f"],
        payload["value_bits"],
        **campaign_builder_params(config),
    )
    if payload.get("telemetry"):
        handle.world.obs = SimObserver(
            tracer=TraceCollector(max_events=TRACE_TAIL_EVENTS)
        )
    result = run_chaos_workload(
        handle, config, payload["num_ops"], payload["max_ticks"]
    )
    return result.to_cache_dict()


def campaign_task_payload(
    algorithm: str,
    config: FaultConfig,
    n: int,
    f: int,
    value_bits: int,
    num_ops: int,
    max_ticks: int,
    telemetry: bool = False,
) -> dict:
    """The declarative description of one campaign run.

    ``telemetry`` is part of the payload (and hence the cache key):
    instrumented results carry extra fields, so they must never collide
    with uninstrumented entries for the same parameters.
    """
    return {
        "kind": "chaos-run",
        "algorithm": algorithm,
        "config": dataclasses.asdict(config),
        "n": n,
        "f": f,
        "value_bits": value_bits,
        "num_ops": num_ops,
        "max_ticks": max_ticks,
        "telemetry": bool(telemetry),
    }


def campaign_task_key(payload: dict) -> str:
    """Cache and journal key of one task: payload + code fingerprint.

    Bundle replays (:mod:`repro.triage.replay`) key through here too;
    their payloads carry ``task: "bundle-replay"``, so no replay shares
    a key with a campaign run.
    """
    return RunCache.key_for(
        {"schema": 1, "fingerprint": code_fingerprint(), **payload}
    )


def quarantined_result(payload: dict, attempts: int) -> ChaosRunResult:
    """Placeholder result for a run the engine gave up on.

    The run executed ``attempts`` times and exceeded the per-run
    timeout every time, so nothing is known about it: no safety claim
    (``safety_ok=True`` with no evidence is deliberate — a timeout is
    not a violation), no liveness claim, no diagnosis.  ``acceptable``
    is False, so a quarantined run always fails the campaign contract
    loudly instead of being silently dropped.
    """
    return ChaosRunResult(
        algorithm=payload["algorithm"],
        config=FaultConfig.from_cache_dict(payload["config"]),
        invoked=0,
        completed=0,
        live=False,
        safety_ok=True,
        safety_reason="",
        diagnosis=None,
        steps=0,
        quarantined=True,
        quarantine_attempts=attempts,
    )


def campaign_journal_meta(
    algorithms: Sequence[str],
    n: int,
    f: int,
    value_bits: int,
    seeds: Sequence[int],
    num_ops: int,
    max_ticks: int,
    byzantine: int = 0,
    telemetry: bool = False,
    task_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> dict:
    """Journal header metadata identifying one campaign exactly.

    A journal only resumes the campaign that wrote it:
    :meth:`~repro.parallel.journal.CampaignJournal.resume` refuses any
    mismatch here (except ``fingerprint``, which merely flags drift —
    the per-run keys already embed it, so stale entries miss naturally
    and re-execute).
    """
    return {
        "kind": "chaos-campaign",
        "algorithms": list(algorithms),
        "n": n,
        "f": f,
        "value_bits": value_bits,
        "seeds": list(seeds),
        "num_ops": num_ops,
        "max_ticks": max_ticks,
        "byzantine": byzantine,
        "telemetry": bool(telemetry),
        "task_timeout": task_timeout,
        "max_retries": max_retries,
        "fingerprint": code_fingerprint(),
    }


def run_campaign(
    algorithms: Sequence[str] = ("abd", "cas", "casgc"),
    n: int = 5,
    f: int = 1,
    value_bits: int = 6,
    seeds: Sequence[int] = (0, 1, 2),
    num_ops: int = 10,
    max_ticks: int = 60_000,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    cache: Optional[RunCache] = None,
    fail_fast: bool = False,
    byzantine: int = 0,
    telemetry: bool = False,
    task_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    journal: Optional[CampaignJournal] = None,
) -> CampaignReport:
    """Run every algorithm under every generated fault config.

    ``algorithms`` name multi-writer systems of
    :mod:`repro.registers.catalog` (``MULTI_WRITER``); all are
    MWMR-atomic, so one safety checker (linearizability) covers them,
    and any other name raises :class:`~repro.errors.ConfigurationError`.

    ``byzantine > 0`` appends the Byzantine band
    (:data:`BYZANTINE_SHAPES`) with that many corrupt servers per run;
    the built systems defend with the matching protocol budget.

    ``telemetry`` attaches a :class:`~repro.obs.recorder.SimObserver`
    (with a bounded trace collector) to every run; results then carry
    ``telemetry``/``trace_tail`` for ``repro chaos --analyze`` and the
    triage bundles.  Instrumented and plain runs use distinct cache
    keys, so flipping the flag never serves stale shapes.

    ``jobs`` fans independent runs out over the persistent worker pool
    (default: ``REPRO_JOBS`` or serial); results are merged in task
    order so the report is byte-identical at any job count (and any
    ``chunk`` size — dispatch chunking, ``REPRO_CHUNK``/auto, never
    affects output).  ``cache`` skips runs
    whose key (parameters + seed + code fingerprint) is already stored;
    a fully warm cache executes zero simulator runs.

    ``task_timeout`` (``REPRO_TASK_TIMEOUT``) arms the engine's timeout: a
    run past the per-run wall clock has its worker killed and is
    retried with backoff; after ``max_retries`` timed-out executions it
    is recorded with a ``quarantined`` verdict and the campaign
    *continues*.  Quarantined results are never cached (the cache key
    ignores the timeout policy), but they are journaled.

    ``journal`` checkpoints every completed run the moment it lands
    (completion order, not report order); runs already in the journal
    are pre-filled exactly like cache hits, so a killed campaign
    resumed from its journal re-executes only what is missing and
    produces a byte-identical report.  A journal or cache entry that
    does not load (a field is missing) is a miss: its run re-executes.

    ``fail_fast`` stops at the first unacceptable run; the report then
    holds exactly the runs up to and including the failure.  The
    engine dispatches nothing more on stop, so fail-fast runs at
    full parallelism — the *set* of reported runs is deterministic
    because results are committed in task order.

    ``KeyboardInterrupt`` (Ctrl-C / SIGINT) is graceful: the report
    comes back with ``interrupted=True`` holding the contiguous
    completed prefix, and the journal — if any — already contains every
    completed run.
    """
    unsupported = [a for a in algorithms if a not in MULTI_WRITER]
    if unsupported:
        raise ConfigurationError(
            f"campaign algorithms must be among {MULTI_WRITER}; got {unsupported}"
        )
    report = CampaignReport(n=n, f=f, value_bits=value_bits, num_ops=num_ops)
    configs = generate_fault_configs(f, list(seeds), byzantine)
    tasks = [
        campaign_task_payload(
            algorithm, config, n, f, value_bits, num_ops, max_ticks,
            telemetry=telemetry,
        )
        for algorithm in algorithms
        for config in configs
    ]
    # Keys are hashed only for a store to look them up in or write to.
    stores = [store for store in (journal, cache) if store is not None]
    keys = [campaign_task_key(payload) for payload in tasks] if stores else []
    stats_before = ENGINE_STATS.snapshot()

    # Each slot holds its decoded run once it lands; ``report.results``
    # is the prefix emitted so far, in task order.
    slots: List[Optional[ChaosRunResult]] = [None] * len(tasks)
    prefilled: set = set()
    for index, key in enumerate(keys):
        for store in stores:
            hit = store.get(key)
            if hit is None:
                continue
            try:
                slots[index] = ChaosRunResult.from_cache_dict(hit)
            except ConfigurationError:
                continue  # a damaged entry is a miss: the run re-executes
            prefilled.add(index)
            break
    pending = [i for i, slot in enumerate(slots) if slot is None]
    stopped = False

    def emit() -> bool:
        """Report the contiguous landed prefix, in task order.

        Returns True once an unacceptable run was reported under
        ``fail_fast`` — the engine's stop signal.
        """
        nonlocal stopped
        results = report.results
        while (
            not stopped
            and len(results) < len(slots)
            and slots[len(results)] is not None
        ):
            index = len(results)
            result = slots[index]
            results.append(result)
            if progress is not None:
                progress(
                    f"{result.algorithm}/{result.config.label()}: "
                    f"{result.verdict()}"
                    f"{'' if result.safety_ok else ' SAFETY VIOLATED'}"
                    f"{' (cached)' if index in prefilled else ''}"
                )
            stopped = fail_fast and not result.acceptable
        return stopped

    def complete(pending_pos: int, data: dict) -> bool:
        """Commit one run the moment it lands (any order); emit in order."""
        index = pending[pending_pos]
        if cache is not None and not data.get("quarantined"):
            cache.put(keys[index], data)
        if journal is not None:
            journal.record(keys[index], data)
        slots[index] = ChaosRunResult.from_cache_dict(data)
        return emit()

    def quarantine(pending_pos: int, payload: dict, attempts: int) -> dict:
        return quarantined_result(payload, attempts).to_cache_dict()

    if not emit() and pending:
        try:
            run_tasks(
                _campaign_task,
                [tasks[index] for index in pending],
                jobs=jobs,
                chunk=chunk,
                task_timeout=task_timeout,
                max_retries=max_retries,
                on_complete=complete,
                quarantine=quarantine,
            )
        except KeyboardInterrupt:
            report.interrupted = True
    report.runtime = ENGINE_STATS.delta_since(stats_before)
    return report


def write_report(report: CampaignReport, path: str) -> None:
    """Persist the formatted report (benchmarks/results convention)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.format() + "\n")


def write_json_report(report: CampaignReport, path: str) -> None:
    """Persist the campaign summary as deterministic JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
