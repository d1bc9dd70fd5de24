"""Event and record types shared across the simulator.

Everything here is a small immutable-ish record; instances must be
deep-copyable because a World snapshot copies the full trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Tuple


@dataclass(frozen=True)
class Message:
    """A message in flight on a channel.

    ``kind`` is a protocol-specific tag (e.g. ``"query"``, ``"prewrite"``);
    ``body`` carries the payload as a dict of plain values.
    """

    kind: str
    body: Tuple[Tuple[str, Any], ...] = ()

    #: Frozen: World forks share Message instances instead of copying.
    __clone_shared__ = True

    @classmethod
    def make(cls, kind: str, **body: Any) -> "Message":
        """Build a message from keyword payload fields."""
        return cls(kind, tuple(sorted(body.items())))

    def get(self, key: str, default: Any = None) -> Any:
        """Read a payload field."""
        for k, v in self.body:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        """Payload as a dict."""
        return dict(self.body)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.body)
        return f"Message({self.kind}{', ' if fields else ''}{fields})"


class ActionRecord(NamedTuple):
    """One step of an execution.

    ``kind`` is one of ``"deliver"``, ``"invoke"``, ``"crash"``,
    ``"recover"`` (a crashed process rejoining from persisted state),
    ``"drop"`` (a delivery consumed by a failed process), or ``"lose"``
    (a message destroyed in transit by a channel adversary).  After the
    i-th action the system is at point ``i`` (points are 0-indexed with
    point 0 the initial state, so action i moves point i-1 to point i).

    A named tuple, not a frozen dataclass: every step builds one, and a
    tuple is the cheapest immutable record to build.
    """

    step: int
    kind: str
    src: Optional[str] = None
    dst: Optional[str] = None
    info: Optional[str] = None

    #: Immutable: forked traces share ActionRecord instances.
    __clone_shared__ = True


@dataclass
class OperationRecord:
    """Invocation/response record of a client operation.

    ``invoke_step``/``response_step`` are the action indices of the
    invocation and completion; ``response_step`` is None while the
    operation is pending (or if it never completes — a failed client).

    Only ``World.invoke_*`` and ``World.complete_operation`` write a
    record, and the latter refuses a completed one, so a completed
    record never changes again: World forks share it, and clone only
    pending records.
    """

    op_id: int
    client: str
    kind: str  # "write" | "read"
    value: Optional[int] = None  # written value, or value returned by a read
    invoke_step: int = 0
    response_step: Optional[int] = None

    @property
    def is_complete(self) -> bool:
        """True once the operation has responded."""
        return self.response_step is not None

    def clone(self) -> "OperationRecord":
        """Independent copy of a pending record for a World fork."""
        return OperationRecord(
            self.op_id,
            self.client,
            self.kind,
            self.value,
            self.invoke_step,
            self.response_step,
        )

    def overlaps(self, other: "OperationRecord") -> bool:
        """True iff the two operations' intervals overlap.

        Incomplete operations extend to infinity on the right.
        """
        self_end = self.response_step if self.is_complete else float("inf")
        other_end = other.response_step if other.is_complete else float("inf")
        return self.invoke_step <= other_end and other.invoke_step <= self_end

    def precedes(self, other: "OperationRecord") -> bool:
        """True iff this operation responds before ``other`` is invoked."""
        return self.is_complete and self.response_step < other.invoke_step
