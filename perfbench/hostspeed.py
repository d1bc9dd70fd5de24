"""Host-speed calibration: scale timings to a reference host.

On a shared machine the speed of a core drifts by a third and more
over seconds as neighbours come and go, and code with a large working
set of small objects — such as this simulator — slows down more than a
tight arithmetic loop does.  ``Calibration`` times two fixed loops of
that kind right before and right after a timed interval:

* ``churn`` — small-object, tuple and dict churn with sorting;
* ``mesh`` — a miniature message-passing simulation: thousands of
  processes with dict state exchanging ``__slots__`` messages, each
  step on a random process, so the walk keeps leaving the caches.

The interval is scaled by the geometric mean of their slowdowns
against ``REFERENCE_SECONDS``.  Both loops are self-contained and use
nothing from the package under test, so a change to the package cannot
move them.
"""

from __future__ import annotations

import gc
import math
import random
import time
from collections import deque
from typing import Callable, Dict, List, Tuple

#: What each loop takes on the reference host: roughly a quiet core of
#: the 2.1 GHz two-vCPU virtual machine the benchmark was tuned on.
#: Fixed constants — changing them rescales every reported time.
REFERENCE_SECONDS: Dict[str, float] = {
    "churn": 1.6e-3,
    "mesh": 1.9e-3,
}


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt) -> None:
        self.key = key
        self.value = value
        self.next = nxt


def _churn() -> int:
    table: dict = {}
    head = None
    kept = 0
    for i in range(750):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + i
        head = _Node(key, i, head)
        if i % 5 == 0:
            kept += len(sorted((k, v) for k, v in list(table.items())[:8]))
    while head is not None:
        kept += head.value
        head = head.next
    return kept


class _Message:
    __slots__ = ("kind", "src", "tag", "value")

    def __init__(self, kind: str, src: str, tag: tuple, value: int) -> None:
        self.kind = kind
        self.src = src
        self.tag = tag
        self.value = value


class _Peer:
    def __init__(self, pid: str) -> None:
        self.pid = pid
        self.state = {"tag": (0, ""), "value": 0, "seen": {}}

    def on_message(self, message: _Message, out: List[_Message]) -> None:
        state = self.state
        seen = state["seen"]
        seen[message.src] = seen.get(message.src, 0) + 1
        if message.tag > state["tag"]:
            state["tag"] = message.tag
            state["value"] = message.value
        out.append(_Message("ack", self.pid, state["tag"], state["value"]))


class _Mesh:
    """The ``mesh`` loop's world: 4,000 peers, one inbox each."""

    def __init__(self, peers: int = 4_000) -> None:
        self.rng = random.Random(0)
        self.peers = [_Peer(f"p{i}") for i in range(peers)]
        self.inboxes = {
            ("c", i): deque([_Message("put", "c", (1, "w"), i)])
            for i in range(peers)
        }

    def run(self, steps: int = 1_000) -> int:
        rng = self.rng
        peers = self.peers
        out: List[_Message] = []
        total = 0
        for _ in range(steps):
            i = rng.randrange(len(peers))
            head = self.inboxes[("c", i)][0]
            peers[i].on_message(
                _Message(
                    head.kind, f"s{i & 7}", (head.tag[0] + (i & 1), head.tag[1]),
                    head.value,
                ),
                out,
            )
            if len(out) > 64:
                total += sum(m.value for m in out)
                out.clear()
        return total


class Calibration:
    """Measures host speed around timed intervals."""

    def __init__(self) -> None:
        mesh = _Mesh()
        self._loops: Dict[str, Callable[[], int]] = {
            "churn": _churn,
            "mesh": mesh.run,
        }

    def slowdown(self) -> Dict[str, float]:
        """Each loop's time now, as a multiple of its reference time.

        The collector is off while the loops run: a collection inside
        them would walk whatever garbage the timed code left behind,
        and tie the factor to the package's own allocations.
        """
        out = {}
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name, loop in self._loops.items():
                start = time.perf_counter()
                loop()
                out[name] = (time.perf_counter() - start) / REFERENCE_SECONDS[name]
        finally:
            if enabled:
                gc.enable()
        return out

    def timed(self, fn: Callable) -> Tuple[float, float, object]:
        """``(raw seconds, reference seconds, result)`` of ``fn()``."""
        before = self.slowdown()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = self.slowdown()
        factor = math.exp(
            sum(math.log((before[k] + after[k]) / 2) for k in before) / len(before)
        )
        return raw, raw / factor, result
