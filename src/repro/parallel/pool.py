"""The dispatch engine: a persistent, supervised worker pool.

Every fan-out in this repository — chaos campaigns, the Section 2
sweeps, the measured Figure 1, shrinker rounds, ``repro metrics
--runs`` and ``repro trace capture`` — goes through :func:`run_tasks`.
Its contract is *byte-determinism*: for any task list, the result list
(and every ``on_result`` callback) is identical whether the tasks ran
serially, on 2 workers, or on 16 — worker completion order never leaks
into output order.  That holds because

* tasks are dispatched with their index attached,
* results are collected keyed by that index, and
* ``on_result`` fires only for the contiguous completed prefix, i.e.
  in task order.

Three mechanisms make the engine fast:

1. **Persistent pool.**  The worker pool is created once per process
   and reused by every ``run_tasks`` call.  It grows (by recreation)
   when a call asks for more workers than it has, and is torn down at
   interpreter exit (or explicitly via :func:`shutdown_pool`).
2. **Chunked dispatch.**  Tasks cross the IPC boundary in chunks of
   :func:`resolve_chunk` indexed tasks (``REPRO_CHUNK`` / ``--chunk``;
   auto-sized to ~4 chunks per worker), at most one chunk in flight
   per worker.
3. **Compact payloads.**  Dict payloads are split by
   :class:`repro.parallel.codec.PayloadCodec` into one shared context
   plus per-task deltas; the context is serialized once per chunk.

Supervision changes wall clock only, never result bytes: a re-run
task executes the same pure function on the same payload.

* **Per-run timeouts.**  With ``task_timeout`` (``REPRO_TASK_TIMEOUT``)
  armed, each chunk carries a deadline of ``timeout`` seconds per task
  plus a fixed grace.  A chunk past it has a hung worker: the pool is
  torn down and rebuilt, and each unfinished slot of the chunk is
  charged one failure and re-queued alone after a deterministic
  backoff.  An armed timeout uses the pool even at one job, because
  an in-process run cannot be interrupted.
* **Quarantine.**  A slot charged ``max_retries`` times takes the
  ``quarantine`` factory's value (or raises :class:`TimeoutError`
  without one) and the batch continues.
* **Worker death.**  ``multiprocessing`` replaces a dead worker within
  milliseconds, so a dead process is never seen; instead the worker
  PIDs are recorded whenever the pool is obtained, and any change
  means a worker died.  The pool is rebuilt and the in-flight chunks
  re-queued, uncharged.
* **Task errors** are bugs, not pool failures: the exception
  propagates and the in-flight work is cancelled with the pool.
* **Cancellation.**  ``on_result`` returning a truthy value stops the
  batch and cancels in-flight work (the campaign's ``--fail-fast``).

If the host forbids worker pools (sandboxed semaphores), or the pool
was rebuilt more than ``_POOL_REBUILD_LIMIT`` times in one batch, the
remaining slots run serially in-process — same results, same callback
order — counted in ``parallel.fallbacks`` and warned once on stderr.

Task functions must be module-level (picklable by reference), task
payloads picklable plain data, and neither may be mutated by the task
function — decoded payloads within a chunk share context objects.

Every knob resolves the same way: explicit argument, else environment
variable (``REPRO_JOBS``, ``REPRO_CHUNK``, ``REPRO_TASK_TIMEOUT``),
else the default (serial, auto chunks, no timeout); malformed
environment values are ignored rather than fatal.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import threading
import time
from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.parallel.codec import PayloadCodec
from repro.parallel.stats import ENGINE_STATS, warn_once

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable consulted when no explicit chunk size is given.
CHUNK_ENV = "REPRO_CHUNK"

#: Environment variable consulted when no explicit timeout is given.
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Default failure budget: a run may time out this many times before
#: it is quarantined (first execution + one retry under the default).
DEFAULT_MAX_RETRIES = 2

#: Auto-chunking aims for this many chunks per worker: small enough to
#: amortize IPC, large enough that one slow chunk cannot idle the rest
#: of the pool for long.
_CHUNKS_PER_WORKER = 4

#: Auto-chunk ceiling: beyond this, bigger chunks stop paying (the
#: shared context is already amortized) and only add result latency.
_MAX_AUTO_CHUNK = 64

#: First-retry backoff; the k-th failure waits ``base * 2**(k-1)``.
BACKOFF_BASE = 0.05

#: Backoff ceiling — retries are about letting a wedged host recover,
#: not about sleeping through the campaign.
BACKOFF_CAP = 2.0

#: Fixed per-chunk slack on top of ``timeout * len(chunk)``: IPC and
#: unpickling cost must never be charged to the first task.
_TIMEOUT_GRACE = 0.25

#: How many times a broken pool is rebuilt in one batch before the
#: engine gives up on parallelism and finishes serially.
_POOL_REBUILD_LIMIT = 3

#: Upper bound on one wait, so a worker death is noticed even when no
#: completion or deadline wakes the loop.
_LIVENESS_POLL = 0.25

#: Distinct-from-anything marker for "this slot has no result yet".
#: ``None`` (or any falsy value) is a legitimate task result, so slot
#: bookkeeping must never use it as the emptiness test.
UNSET = object()

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a job count: explicit arg > ``REPRO_JOBS`` env > 1.

    Non-positive values — whether passed explicitly (``--jobs 0``) or
    via ``REPRO_JOBS=0`` / a negative ``REPRO_JOBS`` — mean "one worker
    per CPU"; both sources resolve through the same rule, so the env
    var and the flag can never disagree about what ``0`` means.  A
    malformed ``REPRO_JOBS`` is ignored rather than fatal — the CLI
    should never crash because of a stray environment variable.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_chunk(
    chunk: Optional[int] = None, tasks: int = 0, workers: int = 1
) -> int:
    """Resolve a dispatch chunk size: arg > ``REPRO_CHUNK`` env > auto.

    Non-positive values (either source) select auto-sizing:
    ``ceil(tasks / (workers * 4))`` capped at 64 — about four chunks
    per worker, so stragglers rebalance while IPC stays amortized.  A
    malformed ``REPRO_CHUNK`` falls back to auto.
    """
    if chunk is None:
        raw = os.environ.get(CHUNK_ENV, "").strip()
        try:
            chunk = int(raw) if raw else 0
        except ValueError:
            chunk = 0
    if chunk <= 0:
        target = max(1, workers) * _CHUNKS_PER_WORKER
        chunk = min(_MAX_AUTO_CHUNK, -(-max(0, tasks) // target) or 1)
    return max(1, int(chunk))


def resolve_task_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Resolve the per-run timeout: arg > ``REPRO_TASK_TIMEOUT`` > off.

    ``None``, ``0``, negative, or malformed values — from either
    source — disable the timeout.  Returns the timeout in (float)
    seconds, or ``None`` when disabled.
    """
    if timeout is None:
        raw = os.environ.get(TASK_TIMEOUT_ENV, "").strip()
        try:
            timeout = float(raw) if raw else None
        except ValueError:
            timeout = None
    if timeout is None or timeout <= 0:
        return None
    return float(timeout)


def backoff_delay(failures: int) -> float:
    """Deterministic exponential backoff for the k-th failure."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** max(0, failures - 1)))


def _run_chunk(chunk):
    """Worker-side shim: run one chunk of indexed tasks.

    ``chunk`` is ``(fn, codec, [(index, delta), ...])``; the codec is
    ``None`` when payloads were shipped verbatim.  Returns
    ``[(index, result), ...]`` so the parent can slot results back in
    task order no matter which worker (or chunk) finished first.
    """
    fn, codec, items = chunk
    if codec is None:
        return [(index, fn(payload)) for index, payload in items]
    return [(index, fn(codec.decode(delta))) for index, delta in items]


def _pool_context():
    """Prefer ``fork`` (cheap, inherits sys.path) where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: The process-wide persistent pool: ``(pool, workers)`` or ``None``.
_POOL: Optional[Tuple[object, int]] = None


def get_pool(workers: int):
    """The persistent pool, created on first use and reused after.

    A pool at least ``workers`` wide is returned; asking for more
    workers than the current pool has replaces it with a wider one
    (the old workers are torn down first).  Raises whatever the host's
    ``multiprocessing`` raises when pools are unavailable — callers
    degrade to serial.
    """
    global _POOL
    if _POOL is not None and _POOL[1] >= workers:
        return _POOL[0]
    if _POOL is not None:
        shutdown_pool()
    pool = _pool_context().Pool(processes=workers)
    _POOL = (pool, workers)
    return pool


def _try_get_pool(workers: int):
    """:func:`get_pool`, or ``None`` where pools are unavailable."""
    try:
        return get_pool(workers)
    except (OSError, ValueError):
        return None


def _worker_pids(pool) -> FrozenSet[Optional[int]]:
    """The PIDs of ``pool``'s workers; a change means a worker died."""
    return frozenset(proc.pid for proc in list(getattr(pool, "_pool", ())))


def pool_workers() -> int:
    """Width of the live persistent pool (0 when none exists)."""
    return 0 if _POOL is None else _POOL[1]


def shutdown_pool() -> None:
    """Tear the persistent pool down (idempotent; re-created on use).

    Registered via ``atexit`` so interpreter shutdown never hangs on
    live workers; also how hung workers and cancelled work are killed,
    and the escape hatch for tests that need a fresh pool.
    """
    global _POOL
    if _POOL is None:
        return
    pool, _ = _POOL
    _POOL = None
    try:
        pool.terminate()
        pool.join()
    except Exception:  # pragma: no cover - teardown is best-effort
        pass


atexit.register(shutdown_pool)


class _Flight:
    """One chunk in flight on the pool, with its wall-clock deadline."""

    __slots__ = ("positions", "deadline")

    def __init__(self, positions: List[int], deadline: float) -> None:
        self.positions = positions
        self.deadline = deadline


def run_tasks(
    fn: Callable[[T], R],
    payloads: Sequence[T],
    jobs: Optional[int] = None,
    on_result: Optional[Callable[[int, R], Optional[bool]]] = None,
    chunk: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    on_complete: Optional[Callable[[int, R], None]] = None,
    quarantine: Optional[Callable[[int, T, int], R]] = None,
) -> List[R]:
    """Run ``fn`` over ``payloads``; return results in payload order.

    ``on_result(index, result)`` fires in strict task order; a truthy
    return value cancels the batch, and the slots it never reached
    stay ``UNSET``.  ``on_complete(index, result)`` fires the moment a
    slot fills, in completion order — the campaign journal's hook.

    With one job (or one task) and no timeout everything runs
    in-process: no subprocesses, no pickling.  Otherwise chunks of
    ``chunk`` tasks go to the persistent pool, supervised as described
    in the module docstring: ``task_timeout`` follows
    :func:`resolve_task_timeout`, and ``quarantine(index, payload,
    failures)`` supplies the value of a slot that timed out
    ``max_retries`` times.
    """
    payloads = list(payloads)
    slots: List[R] = [UNSET] * len(payloads)  # type: ignore[list-item]
    if not payloads:
        return slots
    timeout = resolve_task_timeout(task_timeout)
    retry_budget = max(1, max_retries)
    workers = min(resolve_jobs(jobs), len(payloads))
    filled = 0
    next_emit = 0
    stop = False

    def emit_ready_prefix() -> None:
        """Fire ``on_result`` for the contiguous done prefix, in order."""
        nonlocal next_emit, stop
        while (
            not stop
            and next_emit < len(slots)
            and slots[next_emit] is not UNSET
        ):
            index = next_emit
            next_emit += 1
            if on_result is not None and on_result(index, slots[index]):
                stop = True

    def fill(index: int, value: R) -> None:
        nonlocal filled
        slots[index] = value
        filled += 1
        if on_complete is not None:
            on_complete(index, value)

    def run_serially() -> None:
        """Fill every remaining slot in-process."""
        for index, payload in enumerate(payloads):
            if stop:
                return
            if slots[index] is UNSET:
                fill(index, fn(payload))
            emit_ready_prefix()

    def fall_back(key: str, why: str) -> List[R]:
        """Abandon the pool: finish the batch serially, observably."""
        ENGINE_STATS.inc("fallbacks")
        warn_once(key, f"repro.parallel: {why}; running serially in-process")
        if timeout is not None:
            warn_once(
                "serial-timeout",
                f"repro.parallel: the --task-timeout of {timeout:g}s "
                "cannot be enforced in-process",
            )
        run_serially()
        return slots

    if workers <= 1 and timeout is None:
        run_serially()
        return slots

    pool = _try_get_pool(workers)
    if pool is None:
        return fall_back(
            "pool-create", "worker pool unavailable in this environment"
        )

    chunk_size = resolve_chunk(chunk, len(payloads), workers)
    codec, deltas = PayloadCodec.train(payloads)
    ready: deque = deque(
        list(range(start, min(start + chunk_size, len(payloads))))
        for start in range(0, len(payloads), chunk_size)
    )
    delayed: List[Tuple[float, List[int]]] = []  # retries backing off
    failures: Dict[int, int] = {}  # position -> timeouts charged
    in_flight: List[_Flight] = []
    done: deque = deque()  # (flight, [(position, result), ...])
    errors: deque = deque()  # task exceptions, re-raised in the parent
    wake = threading.Event()
    pids = _worker_pids(pool)
    rebuilds = 0
    # At most one in-flight chunk per worker: a queued-but-unstarted
    # chunk would share its deadline with whatever is hogging the
    # workers, and a single poison run could then time out (and
    # eventually quarantine) innocent chunks that never got to run.
    max_inflight = workers

    def submit(positions: List[int], now: float) -> None:
        item = (fn, codec, [(pos, deltas[pos]) for pos in positions])
        deadline = math.inf
        if timeout is not None:
            deadline = now + timeout * len(positions) + _TIMEOUT_GRACE
        flight = _Flight(positions, deadline)

        def _on_done(rows, _flight=flight):
            done.append((_flight, rows))
            wake.set()

        def _on_error(exc):
            errors.append(exc)
            wake.set()

        pool.apply_async(
            _run_chunk, (item,), callback=_on_done, error_callback=_on_error
        )
        in_flight.append(flight)

    def drain_done() -> bool:
        """Move finished chunks into slots; True when anything landed."""
        landed = False
        while done:
            flight, rows = done.popleft()
            if flight in in_flight:
                in_flight.remove(flight)
            for position, value in rows:
                if slots[position] is UNSET:
                    fill(position, value)
                    landed = True
        return landed

    def charge(position: int, now: float) -> None:
        """A timed-out slot: retry it alone, or quarantine it."""
        ENGINE_STATS.inc("timeouts")
        failures[position] = failures.get(position, 0) + 1
        if failures[position] < retry_budget:
            ENGINE_STATS.inc("retries")
            not_before = now + backoff_delay(failures[position])
            delayed.append((not_before, [position]))
            return
        ENGINE_STATS.inc("quarantined")
        if quarantine is None:
            raise TimeoutError(
                f"task {position} exceeded the {timeout:g}s timeout "
                f"{failures[position]} time(s) and no quarantine factory "
                "was given"
            )
        value = quarantine(position, payloads[position], failures[position])
        fill(position, value)

    try:
        while filled < len(payloads) and not stop:
            now = time.monotonic()
            due = [entry for entry in delayed if entry[0] <= now]
            if due:
                delayed[:] = [entry for entry in delayed if entry[0] > now]
                ready.extend(positions for _, positions in due)
            while ready and len(in_flight) < max_inflight:
                submit(ready.popleft(), now)

            # Sleep until the next interesting moment: a completion or
            # error callback, the nearest deadline or backoff, or the
            # liveness poll.
            horizon = min(
                [now + _LIVENESS_POLL]
                + [fl.deadline for fl in in_flight]
                + [not_before for not_before, _ in delayed]
            )
            if not done and not errors and horizon > now:
                wake.wait(timeout=horizon - now)
            wake.clear()

            now = time.monotonic()
            expired = [fl for fl in in_flight if now >= fl.deadline]
            died = bool(in_flight) and _worker_pids(pool) != pids
            if drain_done():
                emit_ready_prefix()
            if stop:
                break
            if errors:
                shutdown_pool()
                raise errors.popleft()
            # A chunk that landed after the deadline check was in time.
            expired = [fl for fl in expired if fl in in_flight]
            if not expired and not died:
                continue
            if died:
                warn_once(
                    "worker-died",
                    "repro.parallel: a worker process died mid-flight; "
                    "rebuilding the pool and re-running its in-flight tasks",
                )
            # Hung or dead workers can only be stopped by killing the
            # whole pool; every in-flight chunk loses its work.
            shutdown_pool()
            rebuilds += 1
            lost = list(in_flight)
            in_flight.clear()
            for flight in lost:
                unfilled = [p for p in flight.positions if slots[p] is UNSET]
                if flight in expired:
                    for position in unfilled:
                        charge(position, now)
                elif unfilled:
                    # Blameless: the pool died around this chunk.
                    ready.append(unfilled)
            emit_ready_prefix()
            if stop or filled >= len(payloads):
                break
            pool = None
            if rebuilds <= _POOL_REBUILD_LIMIT:
                pool = _try_get_pool(workers)
            if pool is None:
                return fall_back("pool-lost", "worker pool kept failing")
            pids = _worker_pids(pool)
    except KeyboardInterrupt:
        # Flush what already completed (so journals see it), then kill
        # the workers and let the caller decide what "partial" means.
        drain_done()
        shutdown_pool()
        raise

    if stop and in_flight:
        shutdown_pool()  # cancellation: in-flight work dies with the pool
    return slots
