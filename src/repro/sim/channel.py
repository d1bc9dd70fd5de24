"""Reliable FIFO point-to-point asynchronous channels.

One :class:`Channel` per ordered pair of processes, created lazily on
first send.  The channel never drops or reorders messages; asynchrony
comes entirely from the scheduler choosing *when* each delivery action
runs.

Channels keep the World's incremental non-empty index themselves: a
World's channel holds the World's set of non-empty channel keys, adds
its key when its queue becomes non-empty and discards it when the
queue empties, so ``World.step`` never rescans or sorts the channels.
The set has no order; a caller that reads one sorts a copy
(``World.enabled_channels``).  The channel holds only the set, never
the World, so a dropped World is freed by reference counting alone.
A standalone channel (no set) is a plain FIFO queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Set, Tuple

from repro.sim.events import Message

#: A World's set of non-empty channel keys ``(src, dst)``.
KeyIndex = Set[Tuple[str, str]]


class Channel:
    """FIFO queue of messages from ``src`` to ``dst``.

    ``keys`` is the non-empty index of the World that owns the channel:
    the channel's key is in it exactly while the queue holds a message.
    ``None`` leaves the channel standalone.
    """

    def __init__(
        self,
        src: str,
        dst: str,
        keys: Optional[KeyIndex] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self._queue: Deque[Message] = deque()
        self._keys = keys

    def enqueue(self, message: Message) -> None:
        """Append a message to the tail of the channel."""
        queue = self._queue
        queue.append(message)
        if len(queue) == 1 and self._keys is not None:
            self._keys.add((self.src, self.dst))

    def dequeue(self) -> Message:
        """Pop the head message (caller checks non-emptiness)."""
        queue = self._queue
        message = queue.popleft()
        if not queue and self._keys is not None:
            self._keys.discard((self.src, self.dst))
        return message

    def dequeue_at(self, index: int) -> Message:
        """Remove and return the message at ``index`` (0 = head).

        Used only by adversarial (reordering) deliveries; well-behaved
        channels always take the head.  The caller is responsible for
        keeping ``index`` within the current queue length.
        """
        queue = self._queue
        message = queue[index]
        del queue[index]
        if not queue and self._keys is not None:
            self._keys.discard((self.src, self.dst))
        return message

    def peek(self) -> Optional[Message]:
        """Head message without removing it, or None if empty."""
        return self._queue[0] if self._queue else None

    def clone(self, keys: Optional[KeyIndex] = None) -> "Channel":
        """Fast copy for copy-on-write World forks.

        Messages are immutable and shared; the queue itself is copied.
        The clone holds the *caller's* key index (a World writing a
        channel it shares with a fork twin passes its own), never the
        original's.  It starts with the original's messages, which that
        index already reflects.
        """
        duplicate = Channel(self.src, self.dst, keys)
        duplicate._queue.extend(self._queue)
        return duplicate

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def state_digest(self) -> tuple:
        """Canonical hashable representation of the channel contents."""
        return tuple((m.kind, m.body) for m in self._queue)

    def __repr__(self) -> str:
        return f"Channel({self.src}->{self.dst}, {len(self._queue)} msgs)"
