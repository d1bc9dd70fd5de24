"""Engine runtime counters: making degradation and recovery observable.

The parallel engine degrades gracefully by design — a sandbox that
forbids worker pools falls back to in-process serial execution, a hung
run is killed and retried, a poison run is quarantined.  Every one of
those events used to be invisible: the campaign produced the right
bytes and nobody learned the engine had been limping.  This module is
the ledger those events write to.

Four counters, all process-wide (:data:`ENGINE_STATS`):

* ``parallel.timeouts`` — task executions killed at the per-run
  wall-clock timeout (one increment per killed slot, including every
  retry that timed out again);
* ``parallel.retries`` — slots re-queued for another attempt after a
  timeout;
* ``parallel.quarantined`` — slots that exhausted ``--max-retries``
  and were recorded with a ``quarantined`` verdict instead of a result;
* ``parallel.fallbacks`` — times the engine abandoned the worker pool
  and completed work serially in-process (pool creation refused, or
  the pool kept failing past the rebuild limit; a single worker death is
  recovered by a rebuild and counts nothing).

:func:`repro.faults.campaign.run_campaign` snapshots the counters
around a campaign and publishes the delta as the report's ``runtime``
section (the ``runtime`` key of ``repro chaos --json`` and the
``engine:`` footer line of the text report).  On a healthy engine
every counter is zero, so the byte-determinism contract is untouched;
when the engine degrades, the bytes *should* differ — that is the
observability.

:func:`warn_once` is the stderr half: each degradation category warns
exactly once per process, so a 10,000-run campaign with a dead sandbox
prints one line, not ten thousand.
"""

from __future__ import annotations

import sys
from typing import Dict, Set

#: Counter names, in the order reports print them.
COUNTER_NAMES = (
    "parallel.timeouts",
    "parallel.retries",
    "parallel.quarantined",
    "parallel.fallbacks",
)


class EngineStats:
    """A tiny process-wide counter bundle (no locks needed: counters
    are only incremented from the supervising process, never from
    workers)."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def inc(self, name: str, amount: int = 1) -> None:
        key = name if name.startswith("parallel.") else f"parallel.{name}"
        self.counters[key] = self.counters.get(key, 0) + amount

    def get(self, name: str) -> int:
        key = name if name.startswith("parallel.") else f"parallel.{name}"
        return self.counters.get(key, 0)

    def snapshot(self) -> Dict[str, int]:
        """A copy of the current counter values."""
        return dict(self.counters)

    def delta_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since ``snapshot``, all names present."""
        return {
            name: self.counters.get(name, 0) - snapshot.get(name, 0)
            for name in COUNTER_NAMES
        }

    def reset(self) -> None:
        for name in list(self.counters):
            self.counters[name] = 0


#: The process-wide ledger every engine component writes to.
ENGINE_STATS = EngineStats()

#: Keys that have already warned this process (see :func:`warn_once`).
_WARNED: Set[str] = set()


def warn_once(key: str, message: str) -> None:
    """Print ``message`` to stderr the first time ``key`` is seen.

    Degradation is per-event in the counters but per-category on
    stderr: the human needs to learn *that* the engine degraded, the
    counters say *how often*.
    """
    if key in _WARNED:
        return
    _WARNED.add(key)
    print(f"warning: {message}", file=sys.stderr)


def reset_warnings() -> None:
    """Forget warn-once history (test isolation hook)."""
    _WARNED.clear()
