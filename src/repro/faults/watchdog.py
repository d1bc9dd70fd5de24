"""Liveness watchdog: turn silent hangs into structured diagnoses.

Safety (atomicity/regularity) must hold under *any* asynchrony;
liveness is promised only while concurrently-failed servers stay within
``f`` and partitions heal.  When an execution stops making progress the
interesting question is *why* — the watchdog answers it instead of
letting drivers spin to ``max_steps``:

* ``deadlock`` — messages are queued but a channel filter blocks every
  non-empty channel (no enabled delivery can ever exist again);
* ``partition-isolated`` — every undelivered message crosses an active
  (unhealed) partition cut;
* ``quorum-unavailable`` — fewer live servers than the quorum size, so
  pending quorum phases can never gather enough acks;
* ``message-loss-starvation`` — nothing is in flight yet operations are
  pending: adversarial losses destroyed the acks a client was waiting
  for (the omission-fault analogue of a crashed quorum);
* ``byzantine-suppressed`` — the starvation shape, but Byzantine
  servers are active: corrupt acks (e.g. ``ack-drop`` neutralizing
  installs, or unvalidatable responses) starved a client whose
  escalated quorum could not be met;
* ``step-budget-exhausted`` — the tick budget ran out while the system
  was still making (possibly unbounded) progress.

:class:`LivenessWatchdog` wraps the classification for driver loops;
:func:`diagnose_stall` is the underlying pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError, StuckExecutionError
from repro.sim.network import World
from repro.sim.scheduler import ChannelFilter, ChannelKey

VERDICT_DEADLOCK = "deadlock"
VERDICT_PARTITION = "partition-isolated"
VERDICT_QUORUM = "quorum-unavailable"
VERDICT_STARVATION = "message-loss-starvation"
VERDICT_BYZANTINE = "byzantine-suppressed"
VERDICT_BUDGET = "step-budget-exhausted"


@dataclass(frozen=True)
class Diagnosis:
    """Structured explanation of a stuck execution."""

    verdict: str
    detail: str
    step: int
    pending_ops: Tuple[int, ...]
    blocked_channels: Tuple[ChannelKey, ...]
    undelivered: int
    live_servers: Tuple[str, ...]
    byzantine_servers: Tuple[str, ...] = ()

    def summary(self) -> str:
        """One-line human-readable account."""
        return (
            f"{self.verdict} at step {self.step}: {self.detail} "
            f"(pending ops {list(self.pending_ops)}, "
            f"{self.undelivered} undelivered msgs, "
            f"{len(self.live_servers)} live servers)"
        )

    def to_json_dict(self) -> dict:
        """Plain-JSON form, as cache entries, journals and reports hold it."""
        return {
            "verdict": self.verdict,
            "detail": self.detail,
            "step": self.step,
            "pending_ops": list(self.pending_ops),
            "blocked_channels": [list(key) for key in self.blocked_channels],
            "undelivered": self.undelivered,
            "live_servers": list(self.live_servers),
            "byzantine_servers": list(self.byzantine_servers),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Diagnosis":
        """Inverse of :meth:`to_json_dict`.

        Every field but ``byzantine_servers`` is required; a missing one
        raises :class:`~repro.errors.ConfigurationError` naming it.
        """
        for key in (
            "verdict", "detail", "step", "pending_ops", "blocked_channels",
            "undelivered", "live_servers",
        ):
            if key not in data:
                raise ConfigurationError(f"diagnosis field {key!r} is missing")
        return cls(
            verdict=data["verdict"],
            detail=data["detail"],
            step=data["step"],
            pending_ops=tuple(data["pending_ops"]),
            blocked_channels=tuple(tuple(key) for key in data["blocked_channels"]),
            undelivered=data["undelivered"],
            live_servers=tuple(data["live_servers"]),
            byzantine_servers=tuple(data.get("byzantine_servers", ())),
        )


def diagnose_stall(
    world: World,
    quorum: Optional[int] = None,
    channel_filter: Optional[ChannelFilter] = None,
    budget_exhausted: bool = False,
) -> Diagnosis:
    """Classify why ``world`` cannot (or did not) make progress."""
    pending = tuple(op.op_id for op in world.pending_operations())
    nonempty = world.undelivered_keys()
    enabled = world.enabled_keys(channel_filter)
    # The keys come in hash order; the diagnosis records them sorted.
    blocked = tuple(sorted(k for k in nonempty if k not in enabled))
    undelivered = sum(len(world.channels[k]) for k in nonempty)
    live = tuple(s.pid for s in world.servers() if not s.failed)
    adversary = world.adversary
    partition = getattr(adversary, "partition", None)
    byz_config = getattr(getattr(adversary, "config", None), "byzantine", None)
    byzantine = tuple(byz_config.servers) if byz_config is not None else ()

    if budget_exhausted:
        verdict = VERDICT_BUDGET
        detail = "tick budget exhausted with operations still pending"
    elif blocked and partition is not None and all(
        partition.crosses(*key) for key in blocked
    ):
        verdict = VERDICT_PARTITION
        detail = "every undelivered message crosses the active partition cut"
    elif blocked:
        verdict = VERDICT_DEADLOCK
        detail = (
            f"channel filter/partition suppresses all {len(blocked)} "
            "non-empty channels"
        )
    elif quorum is not None and len(live) < quorum:
        verdict = VERDICT_QUORUM
        detail = f"{len(live)} live servers < quorum size {quorum}"
    elif byzantine:
        verdict = VERDICT_BYZANTINE
        detail = (
            "no messages in flight yet operations are pending, with "
            f"Byzantine servers {list(byzantine)} active (corrupt or "
            "withheld acks starved the escalated quorum)"
        )
    else:
        verdict = VERDICT_STARVATION
        detail = (
            "no messages in flight yet operations are pending "
            "(required acks were lost in transit)"
        )
    if world.obs:
        world.obs.registry.inc(f"faults.diagnosis.{verdict}")
    return Diagnosis(
        verdict=verdict,
        detail=detail,
        step=world.step_count,
        pending_ops=pending,
        blocked_channels=blocked,
        undelivered=undelivered,
        live_servers=live,
        byzantine_servers=byzantine,
    )


class LivenessWatchdog:
    """Progress monitor for driver loops.

    Call :meth:`tick` once per loop iteration — it raises
    :class:`~repro.errors.StuckExecutionError` with a budget diagnosis
    once ``max_ticks`` elapse.  When the driver itself concludes the
    system is stuck (nothing enabled, nothing left to invoke, no future
    fault-timeline event), call :meth:`stalled` to get the exception to
    raise, or :meth:`diagnose` for the bare diagnosis.
    """

    def __init__(
        self,
        world: World,
        quorum: Optional[int] = None,
        max_ticks: int = 200_000,
        channel_filter: Optional[ChannelFilter] = None,
    ) -> None:
        self.world = world
        self.quorum = quorum
        self.max_ticks = max_ticks
        self.channel_filter = channel_filter
        self.ticks = 0

    def tick(self) -> None:
        """Count one driver iteration; raise once the budget is gone."""
        self.ticks += 1
        if self.ticks > self.max_ticks:
            diagnosis = self.diagnose(budget_exhausted=True)
            raise StuckExecutionError(diagnosis.summary(), diagnosis)

    def diagnose(self, budget_exhausted: bool = False) -> Diagnosis:
        """Classify the current state."""
        return diagnose_stall(
            self.world, self.quorum, self.channel_filter, budget_exhausted
        )

    def stalled(self) -> StuckExecutionError:
        """The exception a driver should raise for a hopeless stall."""
        diagnosis = self.diagnose()
        return StuckExecutionError(diagnosis.summary(), diagnosis)
