"""The engine's supervision contract: timeouts, retry, quarantine.

Supervised ``run_tasks`` keeps the byte-determinism contract (results
in task order, ``on_complete`` once for every slot) while a hung task
is killed at the per-run timeout and retried with backoff, a poison
task is quarantined after ``max_retries`` timed-out executions, and a
truthy ``on_complete`` return cancels the batch.  The hang tests use a
real fork pool and real wall-clock timeouts — small ones, so the suite
stays fast.
"""

import os
import time

import pytest

import repro.parallel.pool as pool_mod
from repro.parallel.pool import (
    BACKOFF_CAP,
    TASK_TIMEOUT_ENV,
    UNSET,
    backoff_delay,
    pool_workers,
    resolve_task_timeout,
    run_tasks,
    shutdown_pool,
)
from repro.parallel.stats import ENGINE_STATS, reset_warnings


def square(x):
    return x * x


def hang_forever(payload):
    """Poison task: hangs unless the payload says otherwise."""
    if payload.get("hang"):
        time.sleep(60)
    return payload["value"] * payload["value"]


def hang_once(payload):
    """Hangs on its first execution (marker file absent), then succeeds."""
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        time.sleep(60)
    return payload["value"] * payload["value"]


class TestResolveTaskTimeout:
    def test_default_is_disabled(self, monkeypatch):
        monkeypatch.delenv(TASK_TIMEOUT_ENV, raising=False)
        assert resolve_task_timeout() is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "7.5")
        assert resolve_task_timeout(2.0) == 2.0

    def test_env_used_when_no_arg(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "7.5")
        assert resolve_task_timeout() == 7.5

    def test_malformed_env_disables(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "forever")
        assert resolve_task_timeout() is None

    def test_nonpositive_disables(self, monkeypatch):
        monkeypatch.delenv(TASK_TIMEOUT_ENV, raising=False)
        assert resolve_task_timeout(0) is None
        assert resolve_task_timeout(-3.0) is None
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "0")
        assert resolve_task_timeout() is None


class TestBackoff:
    def test_deterministic_doubling(self):
        assert backoff_delay(1) == 0.05
        assert backoff_delay(2) == 0.10
        assert backoff_delay(3) == 0.20

    def test_capped(self):
        assert backoff_delay(30) == BACKOFF_CAP == 2.0


class TestEquivalence:
    """Without timeouts or failures, pooled output equals serial output."""

    def test_empty(self):
        assert run_tasks(square, []) == []

    @pytest.mark.parametrize("jobs,chunk", [(2, 1), (3, 2), (4, 0)])
    def test_parallel_matches_serial(self, jobs, chunk):
        payloads = list(range(11))
        serial = run_tasks(square, payloads, jobs=1)
        assert run_tasks(square, payloads, jobs=jobs, chunk=chunk) == serial

    def test_on_complete_covers_every_slot(self):
        completed = []
        run_tasks(
            square,
            list(range(10)),
            jobs=3,
            chunk=2,
            on_complete=lambda i, r: completed.append((i, r)),
        )
        # Completion order is free; coverage is not.
        assert sorted(completed) == [(i, i * i) for i in range(10)]

    def test_timeout_engages_pool_even_at_one_worker(self):
        # A single in-process worker cannot be interrupted, so an armed
        # timeout must route through the pool even at jobs=1.
        shutdown_pool()
        before = ENGINE_STATS.snapshot()
        results = run_tasks(square, list(range(5)), jobs=1, task_timeout=30.0)
        assert results == [i * i for i in range(5)]
        assert pool_workers() >= 1
        assert ENGINE_STATS.delta_since(before)["parallel.timeouts"] == 0

    def test_task_exception_propagates(self):
        shutdown_pool()

        with pytest.raises(ValueError, match="task 1 is broken"):
            run_tasks(_boom, list(range(4)), jobs=2, chunk=1)


def _boom(payload):
    if payload == 1:
        raise ValueError("task 1 is broken")
    return payload


class TestTimeoutRetryQuarantine:
    def test_hanging_task_is_killed_and_retried_to_success(self, tmp_path):
        # First execution hangs past the timeout: the worker is killed
        # and the slot re-queued; the retry sees the marker and returns.
        shutdown_pool()
        before = ENGINE_STATS.snapshot()
        payloads = [
            {"marker": str(tmp_path / "m0"), "value": 3},
            {"marker": str(tmp_path / "present"), "value": 4},
        ]
        with open(payloads[1]["marker"], "w", encoding="utf-8"):
            pass
        results = run_tasks(
            hang_once,
            payloads,
            jobs=2,
            chunk=1,
            task_timeout=0.4,
            max_retries=3,
        )
        assert results == [9, 16]
        delta = ENGINE_STATS.delta_since(before)
        assert delta["parallel.timeouts"] >= 1
        assert delta["parallel.retries"] >= 1
        assert delta["parallel.quarantined"] == 0
        shutdown_pool()

    def test_poison_task_quarantined_campaign_continues(self):
        shutdown_pool()
        before = ENGINE_STATS.snapshot()
        quarantined = []

        def quarantine(index, payload, attempts):
            quarantined.append((index, attempts))
            return {"quarantined": payload["value"]}

        payloads = [
            {"value": 0},
            {"value": 1, "hang": True},
            {"value": 2},
            {"value": 3},
        ]
        results = run_tasks(
            hang_forever,
            payloads,
            jobs=2,
            chunk=1,
            task_timeout=0.4,
            max_retries=2,
            quarantine=quarantine,
        )
        # Every innocent neighbour completed; the poison slot holds the
        # quarantine factory's value after exactly max_retries failures.
        assert results == [0, {"quarantined": 1}, 4, 9]
        assert quarantined == [(1, 2)]
        delta = ENGINE_STATS.delta_since(before)
        assert delta["parallel.timeouts"] >= 2
        assert delta["parallel.quarantined"] == 1
        shutdown_pool()

    def test_poison_chunkmates_survive_singleton_requeue(self):
        # The poison's chunk-mate is charged when their shared chunk
        # expires, but its singleton retry succeeds — only the poison
        # run is quarantined.
        shutdown_pool()
        before = ENGINE_STATS.snapshot()
        payloads = [{"value": 0, "hang": True}, {"value": 5}]
        results = run_tasks(
            hang_forever,
            payloads,
            jobs=1,
            chunk=2,
            task_timeout=0.4,
            max_retries=3,
            quarantine=lambda i, p, a: {"quarantined": p["value"]},
        )
        assert results == [{"quarantined": 0}, 25]
        assert ENGINE_STATS.delta_since(before)["parallel.quarantined"] == 1
        shutdown_pool()

    def test_no_quarantine_factory_raises(self):
        shutdown_pool()
        with pytest.raises(TimeoutError, match="exceeded"):
            run_tasks(
                hang_forever,
                [{"value": 1, "hang": True}],
                jobs=1,
                task_timeout=0.3,
                max_retries=1,
            )
        shutdown_pool()


class TestCancellation:
    """A truthy ``on_complete`` return on a result stops the batch."""

    def test_on_result_truthy_stops_serial(self):
        seen = []

        def stop_at_two(index, result):
            seen.append(index)
            return index == 2

        results = run_tasks(
            square, list(range(8)), jobs=1, on_complete=stop_at_two
        )
        assert seen == [0, 1, 2]
        assert results[:3] == [0, 1, 4]
        assert all(r is UNSET for r in results[3:])

    def test_on_result_truthy_stops_parallel(self):
        shutdown_pool()
        seen = []

        def stop_at_two(index, result):
            seen.append(index)
            return index == 2

        results = run_tasks(
            square, list(range(40)), jobs=2, chunk=1, on_complete=stop_at_two
        )
        # Slot 2 stops the batch; the chunks still in flight then land,
        # each still reported once.
        assert 2 in seen and len(seen) == len(set(seen))
        assert results[:3] == [0, 1, 4]
        # Nothing is dispatched behind the stop signal, so the batch did
        # not run to completion.
        assert any(r is UNSET for r in results)
        shutdown_pool()


class TestDegradation:
    def test_pool_failure_falls_back_serially(self, monkeypatch, capsys):
        shutdown_pool()
        reset_warnings()

        def no_pool(workers):
            raise OSError("no semaphores here")

        monkeypatch.setattr(pool_mod, "get_pool", no_pool)
        before = ENGINE_STATS.snapshot()
        seen = []
        results = run_tasks(
            square,
            list(range(6)),
            jobs=2,
            task_timeout=5.0,
            on_complete=lambda i, r: seen.append(i),
        )
        assert results == [i * i for i in range(6)]
        assert seen == list(range(6))
        assert ENGINE_STATS.delta_since(before)["parallel.fallbacks"] == 1
        err = capsys.readouterr().err
        assert "worker pool unavailable" in err
        assert "cannot be enforced" in err  # the timeout was armed
        reset_warnings()
