"""Reliable FIFO point-to-point asynchronous channels.

One :class:`Channel` per ordered pair of processes, created lazily on
first send.  The channel never drops or reorders messages; asynchrony
comes entirely from the scheduler choosing *when* each delivery action
runs.

Channels participate in the World's incremental non-empty index: every
mutation that crosses the empty/non-empty boundary fires the optional
``notify`` callback, so ``World.enabled_channels`` never has to rescan
all channels.  Standalone channels (no callback) behave exactly as
before.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.sim.events import Message

#: ``notify(channel, now_nonempty)`` fired on empty<->non-empty transitions.
TransitionCallback = Callable[["Channel", bool], None]


class Channel:
    """FIFO queue of messages from ``src`` to ``dst``."""

    def __init__(
        self,
        src: str,
        dst: str,
        notify: Optional[TransitionCallback] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self._queue: Deque[Message] = deque()
        self._notify = notify

    def enqueue(self, message: Message) -> None:
        """Append a message to the tail of the channel."""
        queue = self._queue
        queue.append(message)
        if len(queue) == 1 and self._notify is not None:
            self._notify(self, True)

    def dequeue(self) -> Message:
        """Pop the head message (caller checks non-emptiness)."""
        queue = self._queue
        message = queue.popleft()
        if not queue and self._notify is not None:
            self._notify(self, False)
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
        if not queue and self._notify is not None:
            self._notify(self, False)
        return message

    def peek(self) -> Optional[Message]:
        """Head message without removing it, or None if empty."""
        return self._queue[0] if self._queue else None

    def clone(self, notify: Optional[TransitionCallback] = None) -> "Channel":
        """Fast copy for copy-on-write World forks.

        Messages are immutable and shared; the queue itself is copied.
        The clone is wired to the *caller's* transition callback (a
        World writing a channel it shares with a fork twin passes its
        own), never to the original's.
        """
        duplicate = Channel(self.src, self.dst, notify)
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
