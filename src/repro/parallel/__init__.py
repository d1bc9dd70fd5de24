"""Parallel execution engine with deterministic result merging.

Every heavy workload in this repository — chaos campaigns, theorem
benches, parameter sweeps — is a collection of *independent* seeded
runs: each run is a pure function of ``(algorithm, N, f, |V|, seed,
fault config)``.  This package exploits that in layers:

* :mod:`repro.parallel.pool` — the one dispatch engine,
  :func:`run_tasks`: a **persistent** ``multiprocessing`` worker pool
  (created once per process, reused by every call) that fans tasks out
  in **chunks** and reassembles results **in task order**, so a
  4-worker campaign report is byte-identical to the serial one.  It
  supervises what it dispatches: per-run wall-clock timeouts
  (``REPRO_TASK_TIMEOUT``), bounded retry with deterministic backoff,
  poison-run quarantine, worker-death recovery and fail-fast
  cancellation.  ``--jobs 1`` (the default) runs in-process with no
  pool at all.
* :mod:`repro.parallel.codec` — the shared-prefix payload codec:
  homogeneous task payloads ship as one per-chunk context plus small
  per-task deltas instead of full re-pickled dicts.
* :mod:`repro.parallel.cache` — a content-addressed run cache under
  ``benchmarks/.cache/``: the key hashes the task parameters, the seed,
  and a fingerprint of the ``src/repro`` source tree
  (:mod:`repro.parallel.fingerprint`), so results survive re-runs but
  never survive a code change.
* :mod:`repro.parallel.journal` — the crash-safe campaign journal
  (``repro.journal/1``) under ``benchmarks/.journal/``: an append-only
  record of completed runs, so ``repro chaos --resume`` continues a
  killed campaign byte-identically.
* :mod:`repro.parallel.stats` — process-wide engine counters
  (``parallel.timeouts/retries/quarantined/fallbacks``) plus the
  warn-once stderr channel, so degradation is observable instead of
  silent.

See ``docs/parallelism.md`` for the determinism contract, the pool
lifecycle, chunk sizing, the cache key design, and the resilience
semantics.
"""

from repro.parallel.cache import DEFAULT_CACHE_DIR, RunCache
from repro.parallel.codec import PayloadCodec
from repro.parallel.fingerprint import FINGERPRINT_ENV, code_fingerprint
from repro.parallel.journal import (
    DEFAULT_JOURNAL_DIR,
    JOURNAL_SCHEMA,
    CampaignJournal,
)
from repro.parallel.pool import (
    CHUNK_ENV,
    DEFAULT_MAX_RETRIES,
    JOBS_ENV,
    TASK_TIMEOUT_ENV,
    UNSET,
    pool_workers,
    resolve_chunk,
    resolve_jobs,
    resolve_task_timeout,
    run_tasks,
    shutdown_pool,
)
from repro.parallel.stats import ENGINE_STATS, EngineStats, warn_once

__all__ = [
    "CHUNK_ENV",
    "CampaignJournal",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_JOURNAL_DIR",
    "DEFAULT_MAX_RETRIES",
    "ENGINE_STATS",
    "EngineStats",
    "FINGERPRINT_ENV",
    "JOBS_ENV",
    "JOURNAL_SCHEMA",
    "PayloadCodec",
    "RunCache",
    "TASK_TIMEOUT_ENV",
    "UNSET",
    "code_fingerprint",
    "pool_workers",
    "resolve_chunk",
    "resolve_jobs",
    "resolve_task_timeout",
    "run_tasks",
    "shutdown_pool",
    "warn_once",
]
