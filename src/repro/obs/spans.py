"""Operation/phase spans measured in simulation steps.

A span is a named interval ``[begin_step, end_step]`` owned by a
process — the time an ABD writer spent in its ``query`` phase, the time
a CAS reader spent collecting coded elements, the full extent of a
client operation.  Spans nest: beginning ``write/propagate`` while
``op/write`` is open records the operation span as the parent, giving a
per-operation phase breakdown without any global clock.

Durations are step counts (the paper's "points"), so span statistics
are deterministic under a fixed seed.  Wall-clock times are recorded
only when the tracker is created with ``record_wall=True`` (used by
``repro profile``) and are never included in deterministic JSON
artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.registry import percentile


@dataclass
class Span:
    """One named interval in a process's execution, measured in steps."""

    span_id: int
    name: str
    owner: str
    begin_step: int
    end_step: Optional[int] = None
    op_id: Optional[int] = None
    parent_id: Optional[int] = None
    wall_begin: Optional[float] = None
    wall_end: Optional[float] = None

    @property
    def is_open(self) -> bool:
        """True while the span has begun but not ended."""
        return self.end_step is None

    @property
    def duration_steps(self) -> Optional[int]:
        """Steps from begin to end, or None while open."""
        if self.end_step is None:
            return None
        return self.end_step - self.begin_step

    @property
    def wall_seconds(self) -> Optional[float]:
        """Wall-clock duration, when wall recording was enabled."""
        if self.wall_begin is None or self.wall_end is None:
            return None
        return self.wall_end - self.wall_begin

    def to_json_dict(self) -> dict:
        """JSON-ready view, without wall times (non-deterministic)."""
        return {
            "span_id": self.span_id,
            "name": self.name,
            "owner": self.owner,
            "begin_step": self.begin_step,
            "end_step": self.end_step,
            "duration_steps": self.duration_steps,
            "op_id": self.op_id,
            "parent_id": self.parent_id,
        }


class SpanTracker:
    """Begin/end span bookkeeping with per-owner nesting.

    ``begin`` pushes onto the owner's stack (recording the current stack
    top, if any, as the parent); ``end`` closes the innermost open span
    with a matching name.  An ``end`` with no matching open span is
    recorded under :attr:`unmatched_ends` rather than raised — orphan
    detection is a report concern, not a crash.
    """

    def __init__(self, record_wall: bool = False) -> None:
        self.record_wall = record_wall
        self.spans: List[Span] = []
        self.unmatched_ends: List[dict] = []
        #: Spans that were open when their owner crashed (see
        #: :meth:`note_crash`): ``{"owner", "name", "span_id",
        #: "crash_step"}`` records, in crash order.
        self.crash_orphans: List[dict] = []
        #: Per owner, its stack of open spans.
        self._owners: Dict[str, List[Span]] = {}
        self._next_id = 0

    def begin(
        self,
        owner: str,
        name: str,
        step: int,
        op_id: Optional[int] = None,
    ) -> Span:
        """Open a span named ``name`` for ``owner`` at simulation ``step``."""
        stack = self._owners.setdefault(owner, [])
        parent = stack[-1] if stack else None
        span = Span(
            span_id=self._next_id,
            name=name,
            owner=owner,
            begin_step=step,
            op_id=op_id if op_id is not None else (parent.op_id if parent else None),
            parent_id=parent.span_id if parent else None,
            wall_begin=time.perf_counter() if self.record_wall else None,
        )
        self._next_id += 1
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, owner: str, name: str, step: int) -> Optional[Span]:
        """Close ``owner``'s innermost open span named ``name`` at ``step``.

        Returns the closed span, or None (and records the orphan end)
        when no open span matches.
        """
        stack = self._owners.get(owner, ())
        for i in range(len(stack) - 1, -1, -1):
            span = stack[i]
            if span.name == name:
                span.end_step = step
                if self.record_wall:
                    span.wall_end = time.perf_counter()
                del stack[i]
                return span
        self.unmatched_ends.append({"owner": owner, "name": name, "step": step})
        return None

    def note_crash(self, owner: str, step: int) -> List[Span]:
        """Record ``owner``'s open spans as crash orphans at ``step``.

        Called by the observer when a process crashes.  The spans stay
        *open* (a recovered process may legitimately end them later);
        the :attr:`crash_orphans` entries make the interruption visible
        to reports instead of silently dropping the phase.  Returns the
        spans that were open at the crash.
        """
        orphans = list(self._owners.get(owner, ()))
        for span in orphans:
            self.crash_orphans.append(
                {
                    "owner": owner,
                    "name": span.name,
                    "span_id": span.span_id,
                    "crash_step": step,
                }
            )
        return orphans

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended (orphans), in begin order."""
        return [s for s in self.spans if s.is_open]

    def stats(self) -> Dict[str, dict]:
        """Per-name duration statistics over *closed* spans.

        Keys are span names (sorted); values carry count and
        total/mean/min/max/p50/p95 of duration in steps.
        """
        by_name: Dict[str, List[int]] = {}
        for span in self.spans:
            if span.duration_steps is not None:
                by_name.setdefault(span.name, []).append(span.duration_steps)
        out: Dict[str, dict] = {}
        for name in sorted(by_name):
            durations = sorted(by_name[name])
            n = len(durations)
            out[name] = {
                "count": n,
                "total_steps": sum(durations),
                "mean_steps": sum(durations) / n,
                "min_steps": durations[0],
                "max_steps": durations[-1],
                "p50_steps": percentile(durations, 0.50),
                "p95_steps": percentile(durations, 0.95),
            }
        return out

    def wall_stats(self) -> Dict[str, dict]:
        """Per-name wall-clock statistics (empty unless record_wall)."""
        by_name: Dict[str, List[float]] = {}
        for span in self.spans:
            if span.wall_seconds is not None:
                by_name.setdefault(span.name, []).append(span.wall_seconds)
        out: Dict[str, dict] = {}
        for name in sorted(by_name):
            walls = by_name[name]
            out[name] = {
                "count": len(walls),
                "total_seconds": sum(walls),
                "mean_seconds": sum(walls) / len(walls),
                "max_seconds": max(walls),
            }
        return out

    def to_json_list(self) -> List[dict]:
        """Every span (open or closed) as JSON-ready dicts, begin order."""
        return [s.to_json_dict() for s in self.spans]

    def __repr__(self) -> str:
        open_count = len(self.open_spans())
        return f"SpanTracker({len(self.spans)} spans, {open_count} open)"
