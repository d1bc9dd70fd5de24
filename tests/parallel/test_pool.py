"""The engine's byte-determinism contract: task order in, task order out.

Also the persistence contract (one pool per process, reused across
``run_tasks`` calls, grown by recreation) and the degradation contract
(sandboxed semaphores fall back to in-process serial execution with
identical output; a dead worker is replaced and its chunks re-run; a
task error propagates without counting as a pool failure, and the pool
is kept, as it is after a cancellation).  The timeout, retry,
quarantine and cancellation contract is in ``test_supervisor.py``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.parallel.pool as pool_mod
from repro.parallel import (
    CHUNK_ENV,
    ENGINE_STATS,
    JOBS_ENV,
    TASK_TIMEOUT_ENV,
    UNSET,
    pool_workers,
    resolve_chunk,
    resolve_jobs,
    run_tasks,
    shutdown_pool,
)
from repro.parallel.stats import reset_warnings

REPO = Path(__file__).resolve().parents[2]

#: This process; forked pool workers inherit the value but not the pid.
_PARENT_PID = os.getpid()


def square(x):
    return x * x


def describe(payload):
    return {"name": payload["name"], "value": payload["value"] + 1}


def falsy_result(payload):
    """Legitimate falsy results: None, 0, "", [] — all valid slot values."""
    return [None, 0, "", []][payload % 4]


CALLS = []


def record_call(payload):
    """Call counter (only sees calls made in this process)."""
    CALLS.append(payload)
    return None


def boom_in_pool(payload):
    """Raises for task 1; records any call made in the parent process."""
    if os.getpid() == _PARENT_PID:
        CALLS.append(payload)
    if payload == 1:
        raise ValueError(f"task {payload} is broken")
    return payload


def always_raises(payload):
    """Raises in every task, wherever it runs."""
    raise AttributeError(f"task {payload} has no attribute 'x'")


def die_once(payload):
    """Kills its worker process on first execution, then succeeds."""
    if payload["die"] and not os.path.exists(payload["marker"]):
        with open(payload["marker"], "w", encoding="utf-8"):
            pass
        os._exit(1)
    return payload["value"] * payload["value"]


def die_in_workers(payload):
    """Kills every pool worker that runs it; succeeds in the parent."""
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return payload * payload


_ISOLATED_BATCH = """
import json, sys
from repro.parallel import ENGINE_STATS, run_tasks
from tests.parallel import test_pool
before = ENGINE_STATS.snapshot()
emitted = []
results = run_tasks(
    getattr(test_pool, sys.argv[1]), json.loads(sys.argv[2]), jobs=2, chunk=2,
    on_complete=lambda index, result: emitted.append(index),
)
stats = ENGINE_STATS.delta_since(before)
print(json.dumps({"results": results, "emitted": emitted, "stats": stats}))
"""


def _isolated_env():
    """This environment minus the engine knobs, importing this checkout."""
    env = dict(os.environ)
    for name in (JOBS_ENV, CHUNK_ENV, TASK_TIMEOUT_ENV):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    return env


def run_isolated(fn_name, payloads):
    """``run_tasks(jobs=2, chunk=2)`` in a fresh interpreter, no timeout.

    Worker-death tests run there so that an engine that never notices
    the death fails at the 60 s kill instead of hanging the suite.
    Returns ``(results, engine counter delta, stderr)`` after checking
    that ``on_complete`` fired once per task.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _ISOLATED_BATCH, fn_name, json.dumps(payloads)],
        cwd=REPO,
        env=_isolated_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert sorted(out["emitted"]) == list(range(len(payloads)))
    return out["results"], out["stats"], proc.stderr


def slow_square(x):
    time.sleep(0.005)  # long enough to be in flight at a cancellation
    return x * x


def repeat_batches(cancel):
    """Run 30 batches of 30 tasks at ``jobs=2``; print what they did.

    Every task of a batch raises, or (``cancel``) ``on_complete`` stops
    the batch at its first result while other chunks are in flight.
    Prints how many batches ended that way, after how many the pool
    was still up, how many distinct worker sets served them, and
    whether a child process is left after ``shutdown_pool()``, an
    unreaped zombie included.
    """
    ended, kept, workers = 0, 0, set()
    for _ in range(30):
        if cancel:
            results = run_tasks(
                slow_square, list(range(30)), jobs=2,
                on_complete=lambda index, result: True,
            )
            ended += any(result is UNSET for result in results)
        else:
            try:
                run_tasks(always_raises, list(range(30)), jobs=2)
            except AttributeError:
                ended += 1
        if pool_mod._POOL is not None:
            kept += 1
            workers.add(pool_mod._worker_pids(pool_mod._POOL[0]))
    shutdown_pool()
    try:
        os.waitpid(-1, os.WNOHANG)
        children_left = True
    except ChildProcessError:
        children_left = False
    print(json.dumps({
        "ended": ended, "kept": kept, "pools": len(workers),
        "children_left": children_left,
    }))


def run_repeated_batches(cancel):
    """:func:`repeat_batches` in a fresh interpreter, killed after 20 s."""
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "from tests.parallel import test_pool; "
            f"test_pool.repeat_batches(cancel={cancel})",
        ],
        cwd=REPO,
        env=_isolated_env(),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class _InProcessPool:
    """A fake pool running chunks in-process — call counts are visible."""

    def apply_async(self, fn, args, callback, error_callback):
        try:
            result = fn(*args)
        except Exception as exc:
            error_callback(exc)
        else:
            callback(result)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_used_when_no_arg(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs() == 5

    def test_malformed_env_ignored(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        assert resolve_jobs() == 1

    def test_nonpositive_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        cpus = os.cpu_count() or 1
        assert resolve_jobs(0) == cpus
        assert resolve_jobs(-4) == cpus

    def test_env_zero_matches_flag_zero(self, monkeypatch):
        # REPRO_JOBS=0 and --jobs 0 must mean the same thing: per-CPU.
        monkeypatch.setenv(JOBS_ENV, "0")
        assert resolve_jobs() == resolve_jobs(0)

    def test_env_negative_means_cpu_count(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "-2")
        assert resolve_jobs() == (os.cpu_count() or 1)


class TestResolveChunk:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "9")
        assert resolve_chunk(5, tasks=100, workers=4) == 5

    def test_env_used_when_no_arg(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "9")
        assert resolve_chunk(tasks=100, workers=4) == 9

    def test_auto_targets_four_chunks_per_worker(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        # ceil(600 / (4 workers * 4)) = 38
        assert resolve_chunk(tasks=600, workers=4) == 38

    def test_auto_capped(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        assert resolve_chunk(tasks=100_000, workers=1) == 64

    def test_auto_floor_is_one(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        assert resolve_chunk(tasks=0, workers=8) == 1
        assert resolve_chunk(tasks=3, workers=8) == 1

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        assert resolve_chunk(0, tasks=600, workers=4) == 38

    def test_malformed_env_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "many")
        assert resolve_chunk(tasks=600, workers=4) == 38


class TestRunTasks:
    def test_empty(self):
        assert run_tasks(square, []) == []

    def test_serial_preserves_order(self):
        assert run_tasks(square, [3, 1, 2], jobs=1) == [9, 1, 4]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial(self, jobs):
        payloads = [{"name": f"t{i}", "value": i} for i in range(9)]
        serial = run_tasks(describe, payloads, jobs=1)
        parallel = run_tasks(describe, payloads, jobs=jobs)
        assert parallel == serial

    @pytest.mark.parametrize("chunk", [1, 2, 5, 0])
    def test_chunk_size_never_affects_output(self, chunk):
        payloads = [{"name": f"t{i}", "value": i} for i in range(9)]
        serial = run_tasks(describe, payloads, jobs=1)
        assert run_tasks(describe, payloads, jobs=3, chunk=chunk) == serial

    def test_single_task_runs_in_process(self):
        # workers = min(jobs, len(payloads)) == 1 -> serial path.
        assert run_tasks(square, [6], jobs=8) == [36]

    def test_falsy_results_are_real_results(self):
        # Regression: slot bookkeeping must use the UNSET sentinel, not
        # None/falsiness — None, 0, "", [] are legitimate results.
        expected = [falsy_result(i) for i in range(8)]
        assert run_tasks(falsy_result, list(range(8)), jobs=1) == expected
        assert run_tasks(falsy_result, list(range(8)), jobs=3, chunk=2) == expected

    def test_none_results_not_reexecuted(self, monkeypatch):
        # With None-as-sentinel, the serial fallback would re-run every
        # task whose (legitimate) result was None.  Count calls under an
        # in-process fake pool to prove each task ran exactly once.
        shutdown_pool()
        monkeypatch.setattr(pool_mod, "get_pool", lambda workers: _InProcessPool())
        CALLS.clear()
        results = run_tasks(record_call, list(range(6)), jobs=2, chunk=2)
        assert results == [None] * 6
        assert len(CALLS) == 6

    def test_unset_sentinel_is_private(self):
        assert UNSET is not None
        assert bool(UNSET)  # a plain object() is truthy, never falsy


class TestPersistentPool:
    def test_pool_reused_across_calls(self):
        shutdown_pool()
        assert pool_workers() == 0
        run_tasks(square, list(range(8)), jobs=2)
        first = pool_mod._POOL
        assert first is not None and pool_workers() >= 2
        run_tasks(square, list(range(8)), jobs=2)
        assert pool_mod._POOL is not None
        assert pool_mod._POOL[0] is first[0]  # same pool object, reused

    def test_pool_grows_by_recreation(self):
        shutdown_pool()
        run_tasks(square, list(range(8)), jobs=2)
        narrow = pool_mod._POOL
        run_tasks(square, list(range(8)), jobs=4)
        assert pool_workers() >= 4
        assert pool_mod._POOL[0] is not narrow[0]
        # A later narrower request reuses the wide pool, no shrink.
        run_tasks(square, list(range(8)), jobs=2)
        assert pool_workers() >= 4

    def test_shutdown_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()
        assert pool_workers() == 0


class TestDegradation:
    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        # The persistent pool may be live from an earlier test; drop it
        # so the monkeypatched context is what get_pool actually hits.
        shutdown_pool()

        class Exploding:
            def Pool(self, processes):
                raise OSError("no semaphores here")

        monkeypatch.setattr(pool_mod, "_pool_context", lambda: Exploding())
        seen = []
        results = run_tasks(
            square, [2, 3], jobs=2, on_complete=lambda i, r: seen.append(i)
        )
        assert results == [4, 9]
        assert seen == [0, 1]

    def test_worker_death_requeues_lost_chunks(self, tmp_path):
        # One task kills its worker.  multiprocessing replaces the
        # worker within milliseconds, so the engine must notice the
        # changed worker PIDs, rebuild the pool and re-run the lost
        # chunks — with no timeout armed, and without a fallback.
        marker = tmp_path / "died"
        payloads = [
            {"marker": str(marker), "die": i == 5, "value": i}
            for i in range(12)
        ]
        results, stats, err = run_isolated("die_once", payloads)
        assert marker.exists()  # the worker really died
        assert results == [i * i for i in range(12)]
        assert stats["parallel.fallbacks"] == 0
        assert err.count("died mid-flight") == 1

    def test_task_exception_propagates(self, capsys):
        # A task that raises is a task bug, not a pool failure: it
        # propagates, no fallback is counted, no "died mid-flight"
        # warning is printed, and no task is re-run in the parent.
        shutdown_pool()
        reset_warnings()
        CALLS.clear()
        before = ENGINE_STATS.snapshot()
        with pytest.raises(ValueError, match="task 1 is broken"):
            run_tasks(boom_in_pool, list(range(4)), jobs=2, chunk=1)
        assert ENGINE_STATS.delta_since(before)["parallel.fallbacks"] == 0
        assert "died mid-flight" not in capsys.readouterr().err
        assert CALLS == []

    def test_raising_batches_never_hang_and_keep_the_pool(self):
        # Tearing the pool down with chunks in flight can deadlock in
        # ``Pool.terminate()``, so a raising batch winds down and keeps
        # its pool: 30 batches whose every task raises each end in that
        # exception, on one pool whose workers never changed.
        assert run_repeated_batches(cancel=False) == {
            "ended": 30, "kept": 30, "pools": 1, "children_left": False,
        }

    def test_cancelled_batches_never_hang_and_keep_the_pool(self):
        # The same for ``on_complete`` cancelling with chunks in flight:
        # each batch stops at its first result, short of its last task,
        # on the one pool.
        assert run_repeated_batches(cancel=True) == {
            "ended": 30, "kept": 30, "pools": 1, "children_left": False,
        }


class TestFallbackObservability:
    """Degradation is counted and warned, never silent (satellite of
    the self-healing runtime: ``parallel.fallbacks`` feeds the campaign
    report's ``runtime`` section)."""

    def test_pool_create_failure_counts_and_warns_once(
        self, monkeypatch, capsys
    ):
        shutdown_pool()
        reset_warnings()

        class Exploding:
            def Pool(self, processes):
                raise OSError("no semaphores here")

        monkeypatch.setattr(pool_mod, "_pool_context", lambda: Exploding())
        before = ENGINE_STATS.get("fallbacks")
        assert run_tasks(square, [2, 3], jobs=2) == [4, 9]
        assert ENGINE_STATS.get("fallbacks") == before + 1
        err = capsys.readouterr().err
        assert err.count("worker pool unavailable") == 1
        # The same category warns once per process, however often the
        # engine falls back; the counter keeps counting.
        assert run_tasks(square, [4, 5], jobs=2) == [16, 25]
        assert ENGINE_STATS.get("fallbacks") == before + 2
        assert "worker pool unavailable" not in capsys.readouterr().err
        reset_warnings()

    def test_pool_death_counts_fallback(self):
        # Workers that keep dying: after the rebuild limit the engine
        # stops rebuilding, counts one fallback, warns, and finishes
        # the batch serially in the parent with identical results.
        results, stats, err = run_isolated("die_in_workers", list(range(6)))
        assert results == [i * i for i in range(6)]
        assert stats["parallel.fallbacks"] == 1
        assert err.count("died mid-flight") == 1
        assert "worker pool kept failing" in err
