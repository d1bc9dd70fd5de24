"""Schedulers: who acts next.

The only nondeterminism in the model is the order in which non-empty
channels deliver their head messages.  A :class:`Scheduler` picks the
next channel among those *enabled* (non-empty and not suppressed by the
active :class:`ChannelFilter`).

* :class:`RoundRobinScheduler` — fair: cycles through channel keys in a
  fixed order, so every queued message is eventually delivered.  This
  realizes the paper's "all components take turns in a fair manner".
* :class:`RandomScheduler` — seeded uniform choice; fair with
  probability 1, used for state-space exploration.
* :class:`ScriptedScheduler` — consumes an explicit list of channel
  keys; used by the executable proofs for fully controlled schedules.

A :class:`ChannelFilter` suppresses deliveries on matching channels —
the proofs' "messages from and to the writer are delayed indefinitely"
is a filter, not a message drop: the messages stay queued.
"""

from __future__ import annotations

import copy
from typing import (
    Callable,
    Collection,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.errors import SchedulerExhaustedError
from repro.util.rng import SeededRNG

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import World

ChannelKey = Tuple[str, str]

#: The collections :meth:`RoundRobinScheduler.select` probes in place.
_SET_TYPES = (set, frozenset)


class ChannelFilter:
    """Predicate over channel keys; True means "may deliver".

    A filter may additionally inspect the channel's *head message* via
    ``message_allow`` — that is how the Section 6 constructions express
    "the channels from these clients do not deliver value-dependent
    messages" without freezing the whole channel.  Because channels are
    FIFO, blocking the head blocks everything behind it, which is
    exactly the semantics the proofs need (a value-dependent message
    cannot be overtaken).
    """

    def __init__(
        self,
        allow: Callable[[str, str], bool],
        description: str = "custom",
        message_allow: Optional[Callable[[str, str, object], bool]] = None,
    ) -> None:
        self._allow = allow
        self._message_allow = message_allow
        self.description = description

    def allows(self, src: str, dst: str, head_message: object = None) -> bool:
        """Whether the channel src->dst may deliver under this filter.

        ``head_message`` is the message that would be delivered; it is
        only consulted when the filter has a message predicate.
        """
        if not self._allow(src, dst):
            return False
        if self._message_allow is not None and head_message is not None:
            return self._message_allow(src, dst, head_message)
        return True

    @classmethod
    def block_message_kinds(
        cls,
        kinds: Sequence[str],
        from_pids: Optional[Sequence[str]] = None,
    ) -> "ChannelFilter":
        """Delay deliveries whose head message kind is in ``kinds``.

        With ``from_pids`` the block applies only to channels leaving
        those processes (the Section 6 per-client value-dependent
        freeze).
        """
        blocked = frozenset(kinds)
        sources = frozenset(from_pids) if from_pids is not None else None

        def message_ok(src: str, dst: str, message) -> bool:
            if sources is not None and src not in sources:
                return True
            return getattr(message, "kind", None) not in blocked

        return cls(
            lambda s, d: True,
            f"block_kinds({sorted(blocked)}, from={sorted(sources) if sources else 'all'})",
            message_allow=message_ok,
        )

    @classmethod
    def all_channels(cls) -> "ChannelFilter":
        """No suppression."""
        return cls(lambda s, d: True, "all")

    @classmethod
    def freeze_process(cls, pid: str) -> "ChannelFilter":
        """Delay all channels from and to ``pid`` indefinitely."""
        return cls(lambda s, d: s != pid and d != pid, f"freeze({pid})")

    @classmethod
    def freeze_processes(cls, pids: Sequence[str]) -> "ChannelFilter":
        """Delay all channels touching any pid in ``pids``."""
        frozen = frozenset(pids)
        return cls(
            lambda s, d: s not in frozen and d not in frozen,
            f"freeze({sorted(frozen)})",
        )

    @classmethod
    def only_between(cls, pids: Sequence[str]) -> "ChannelFilter":
        """Allow only channels whose both endpoints are in ``pids``."""
        allowed = frozenset(pids)
        return cls(
            lambda s, d: s in allowed and d in allowed,
            f"only_between({sorted(allowed)})",
        )

    def intersect(self, other: "ChannelFilter") -> "ChannelFilter":
        """Filter allowing only what both filters allow."""

        def message_ok(src: str, dst: str, message) -> bool:
            return (
                self._message_allow is None
                or self._message_allow(src, dst, message)
            ) and (
                other._message_allow is None
                or other._message_allow(src, dst, message)
            )

        return ChannelFilter(
            lambda s, d: self._allow(s, d) and other._allow(s, d),
            f"{self.description} & {other.description}",
            message_allow=message_ok,
        )

    def __repr__(self) -> str:
        return f"ChannelFilter({self.description})"


class Scheduler:
    """Base class; picks the next enabled channel to deliver."""

    def select(self, world: "World", enabled: Collection[ChannelKey]) -> ChannelKey:
        """Choose one key from ``enabled``, a non-empty collection of keys.

        ``enabled`` may be any collection, often the World's live
        non-empty index: read it only during the call, never write or
        keep it, and take no order from its iteration (a set iterates
        in an order ``PYTHONHASHSEED`` decides).
        """
        raise NotImplementedError

    def clone(self) -> "Scheduler":
        """Independent copy for World forks.

        Every built-in scheduler overrides this with an explicit fast
        copy; the base falls back to ``copy.deepcopy`` so third-party
        schedulers keep working unmodified.
        """
        return copy.deepcopy(self)


class RoundRobinScheduler(Scheduler):
    """Fair cyclic selection over a persistent order of known keys.

    The cyclic order is over *all* channel keys ever seen, not just the
    currently enabled ones: indexing a cursor into a freshly sorted
    ``enabled`` list is unfair when membership changes between calls (a
    key that keeps landing just behind the cursor can be starved
    forever).  Here each selection resumes the scan from the last
    position, so between two selections of the same key every other
    key that stayed enabled is selected at least once — genuine
    round-robin fairness under churn.

    New keys join the order in sorted order, so the schedule does not
    depend on the order ``enabled`` iterates in.  A selection reads
    ``enabled`` by membership only: the World's own set is read in
    place (a subset test against the known keys, then one probe per
    key the cyclic scan visits), and any other collection is hashed
    once into a set first.
    """

    def __init__(self) -> None:
        self._order: List[ChannelKey] = []
        self._known: set = set()
        self._cursor = 0

    def clone(self) -> "RoundRobinScheduler":
        duplicate = RoundRobinScheduler()
        duplicate._order = list(self._order)
        duplicate._known = set(self._known)
        duplicate._cursor = self._cursor
        return duplicate

    def select(self, world: "World", enabled: Collection[ChannelKey]) -> ChannelKey:
        if not isinstance(enabled, _SET_TYPES):
            enabled = set(enabled)
        known = self._known
        order = self._order
        if not enabled <= known:
            for key in sorted(enabled - known):
                known.add(key)
                order.append(key)
        total = len(order)
        cursor = self._cursor
        for offset in range(total):
            index = (cursor + offset) % total
            key = order[index]
            if key in enabled:
                self._cursor = index + 1
                return key
        raise SchedulerExhaustedError(
            "no enabled channel found in round-robin order"
        )  # pragma: no cover - every enabled key is in the order


class RandomScheduler(Scheduler):
    """Seeded uniform selection (fair with probability 1)."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = SeededRNG(seed, "scheduler")

    def clone(self) -> "RandomScheduler":
        duplicate = RandomScheduler.__new__(RandomScheduler)
        duplicate.rng = self.rng.clone()
        return duplicate

    def select(self, world: "World", enabled: Collection[ChannelKey]) -> ChannelKey:
        return self.rng.choice(sorted(enabled))


class ScriptedScheduler(Scheduler):
    """Consumes a fixed script of channel keys, in order.

    Raises :class:`SchedulerExhaustedError` when the script runs dry or
    the next scripted key is not currently enabled — scripted schedules
    are supposed to be exact replays.
    """

    def __init__(self, script: Sequence[ChannelKey]) -> None:
        self.script: List[ChannelKey] = list(script)
        self.position = 0

    def clone(self) -> "ScriptedScheduler":
        duplicate = ScriptedScheduler(self.script)
        duplicate.position = self.position
        return duplicate

    def select(self, world: "World", enabled: Collection[ChannelKey]) -> ChannelKey:
        if self.position >= len(self.script):
            raise SchedulerExhaustedError("scripted schedule exhausted")
        key = self.script[self.position]
        if key not in enabled:
            raise SchedulerExhaustedError(
                f"scripted channel {key} not enabled at step {self.position}"
            )
        self.position += 1
        return key
