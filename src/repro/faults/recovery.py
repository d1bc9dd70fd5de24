"""Timed crash/recover schedules: the one crash mechanism of a run.

A :class:`CrashRecoverySchedule` is a declarative timeline of crash and
recovery events driven by an external *tick* clock (the chaos driver's
loop counter, not ``World.step_count`` — the world can be momentarily
unable to step while partitioned, but the driver's clock always
advances, so scheduled heals and recoveries still fire).  An event
with no recovery tick is a permanent crash, the paper's failure model.

The liveness contract of every algorithm in this repo is "operations
terminate while *concurrently failed* servers stay within ``f``".  A
schedule whose crash intervals never overlap on more than ``f`` servers
therefore preserves liveness even though the *cumulative* number of
crashes may exceed ``f`` — recovery is what makes that distinction
meaningful, and :meth:`CrashRecoverySchedule.validate` enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.sim.network import World

#: One timeline entry: (pid, crash_tick, recover_tick-or-None).
CrashEvent = Tuple[str, int, Optional[int]]


@dataclass(frozen=True)
class CrashRecoverySchedule:
    """Which processes crash when, and when (if ever) they rejoin."""

    events: Tuple[CrashEvent, ...] = ()

    def pids(self) -> Tuple[str, ...]:
        """All process ids named by the schedule, sorted."""
        return tuple(sorted({pid for pid, _, _ in self.events}))

    def max_concurrent_down(self, restrict_to: Optional[Sequence[str]] = None) -> int:
        """Peak number of simultaneously-down processes.

        ``restrict_to`` limits the count to those pids (pass the server
        ids to check the ``f`` budget; client crashes are unbudgeted).
        """
        allowed = None if restrict_to is None else frozenset(restrict_to)
        deltas = []
        for pid, crash_tick, recover_tick in self.events:
            if allowed is not None and pid not in allowed:
                continue
            deltas.append((crash_tick, 1))
            if recover_tick is not None:
                deltas.append((recover_tick, -1))
        # Recoveries at tick t fire before crashes at tick t (sort by
        # delta), so a back-to-back handoff does not double-count.
        deltas.sort(key=lambda d: (d[0], d[1]))
        down = peak = 0
        for _, delta in deltas:
            down += delta
            peak = max(peak, down)
        return peak

    def validate(self, world: World, f: int) -> None:
        """Check pids exist, intervals are sane, and the budget holds."""
        per_pid: dict = {}
        for pid, crash_tick, recover_tick in self.events:
            world.process(pid)  # raises UnknownProcessError
            if crash_tick < 0:
                raise ConfigurationError(f"negative crash tick for {pid}")
            if recover_tick is not None and recover_tick <= crash_tick:
                raise ConfigurationError(
                    f"{pid}: recovery tick {recover_tick} must follow "
                    f"crash tick {crash_tick}"
                )
            per_pid.setdefault(pid, []).append((crash_tick, recover_tick))
        for pid, intervals in per_pid.items():
            intervals.sort()
            for (c1, r1), (c2, _) in zip(intervals, intervals[1:]):
                if r1 is None or c2 < r1:
                    raise ConfigurationError(
                        f"{pid}: overlapping crash intervals "
                        f"({c1}, {r1}) and starting {c2}"
                    )
        server_ids = [s.pid for s in world.servers()]
        peak = self.max_concurrent_down(server_ids)
        if peak > f:
            raise ConfigurationError(
                f"schedule takes {peak} servers down concurrently, budget is f={f}"
            )

    def apply(self, world: World, tick: int, applied: Set[tuple]) -> int:
        """Fire all events due at ``tick``; returns actions performed.

        ``applied`` is caller-owned state marking fired events (the
        schedule itself is frozen and reusable).  Recoveries due at the
        same tick as later crashes fire first.
        """
        fired = 0
        for index, (pid, crash_tick, recover_tick) in enumerate(self.events):
            if recover_tick is not None and tick >= recover_tick:
                key = ("recover", index)
                if key not in applied:
                    applied.add(key)
                    applied.add(("crash", index))  # implied even if skipped
                    if world.process(pid).failed:
                        world.recover(pid)
                        fired += 1
                    continue
            if tick >= crash_tick:
                key = ("crash", index)
                if key not in applied:
                    applied.add(key)
                    if not world.process(pid).failed:
                        world.crash(pid)
                        fired += 1
        return fired

    def done(self, applied: Set[tuple]) -> bool:
        """True once every event (crash and recovery) has fired."""
        for index, (_, _, recover_tick) in enumerate(self.events):
            if ("crash", index) not in applied:
                return False
            if recover_tick is not None and ("recover", index) not in applied:
                return False
        return True
