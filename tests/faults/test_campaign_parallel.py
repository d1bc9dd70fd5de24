"""The campaign's byte-determinism and cache contracts.

Two acceptance properties of the parallel engine, checked end to end
against the real chaos campaign:

1. the report text and the ``repro.chaos/1`` JSON are byte-identical
   at any job count, and
2. a warm cache executes **zero** simulator runs while still
   reproducing the identical report (and a code-fingerprint change
   invalidates every entry).
"""

import json
import os

import pytest

import repro.faults.campaign as campaign_mod
from repro.cli import main as cli_main
from repro.faults.campaign import campaign_task_payload, run_campaign
from repro.parallel import FINGERPRINT_ENV, RunCache

#: Two seeds so the identity claim covers the whole seeded config grid,
#: over replication and both coded algorithms.
PARAMS = dict(
    algorithms=("abd", "cas", "casgc"), n=5, f=1, value_bits=6,
    seeds=[0, 1], num_ops=4,
)


@pytest.fixture(scope="module")
def serial_report():
    return run_campaign(jobs=1, **PARAMS)


@pytest.fixture(scope="module")
def parallel_report():
    return run_campaign(jobs=4, **PARAMS)


class TestByteIdentity:
    def test_report_text_identical(self, serial_report, parallel_report):
        assert parallel_report.format() == serial_report.format()

    def test_json_identical(self, serial_report, parallel_report):
        def dump(report):
            return json.dumps(report.to_json_dict(), sort_keys=True, indent=2)

        assert dump(parallel_report) == dump(serial_report)

    def test_progress_lines_in_task_order(self):
        lines = {}
        for jobs in (1, 3):
            acc = []
            run_campaign(
                algorithms=("abd",), n=5, f=1, value_bits=6,
                seeds=[0], num_ops=3, jobs=jobs, progress=acc.append,
            )
            lines[jobs] = acc
        assert lines[3] == lines[1]
        assert len(lines[1]) > 0

    def test_chunk_size_never_affects_report(self, serial_report):
        for chunk in (1, 3, 0):
            report = run_campaign(jobs=4, chunk=chunk, **PARAMS)
            assert report.format() == serial_report.format(), chunk

    def test_cached_none_slots_never_reexecuted(self, tmp_path, monkeypatch):
        # Regression for the cache/slot ambiguity: with None used both
        # as "cache miss" and "slot unfilled", a fully warm cache where
        # lookups legitimately return data must not be confused with
        # pending slots.  The UNSET sentinel keeps them distinct; this
        # pins the observable consequence (zero re-executions) at the
        # campaign level even when only *some* slots are warm.
        small = dict(algorithms=("abd",), n=5, f=1, value_bits=6,
                     seeds=[0], num_ops=3)
        cache = RunCache(str(tmp_path))
        first = run_campaign(cache=cache, **small)

        executed = []
        real_task = campaign_mod._campaign_task

        def counting_task(payload):
            executed.append(payload["config"]["seed"])
            return real_task(payload)

        monkeypatch.setattr(campaign_mod, "_campaign_task", counting_task)
        # Evict every other entry so the warm pass mixes hits and misses.
        keys = [
            campaign_mod.campaign_task_key(
                campaign_mod.campaign_task_payload(
                    "abd", config, 5, 1, 6, 3, 60_000
                )
            )
            for config in campaign_mod.generate_fault_configs(1, [0])
        ]
        for key in keys[::2]:
            os.remove(cache._path(key))
        partial = RunCache(str(tmp_path))
        second = run_campaign(cache=partial, **small)
        assert second.format() == first.format()
        assert len(executed) == len(keys[::2])  # misses only, each once


class TestCliByteIdentity:
    """`repro chaos --json` byte-identity across job counts (chunked path)."""

    ARGS = [
        "chaos", "--algorithms", "abd", "--n", "5", "--f", "1",
        "--seeds", "1", "--ops", "3", "--out", "", "--no-cache",
    ]

    @pytest.fixture(scope="class")
    def json_by_jobs(self, tmp_path_factory):
        out = {}
        for jobs in (1, 2, 8):
            path = tmp_path_factory.mktemp("chaos") / f"jobs{jobs}.json"
            rc = cli_main(
                self.ARGS + ["--jobs", str(jobs), "--chunk", "2",
                             "--json", str(path)]
            )
            assert rc == 0
            out[jobs] = path.read_bytes()
        return out

    def test_json_bytes_identical_at_1_2_8(self, json_by_jobs):
        assert json_by_jobs[1] == json_by_jobs[2] == json_by_jobs[8]
        assert json.loads(json_by_jobs[1])  # and it is real JSON


class TestRunCache:
    SMALL = dict(
        algorithms=("abd", "cas", "casgc"), n=5, f=1, value_bits=6,
        seeds=[0], num_ops=3,
    )

    def test_warm_cache_executes_zero_runs(self, tmp_path, monkeypatch):
        cache = RunCache(str(tmp_path))
        first = run_campaign(cache=cache, **self.SMALL)
        runs = len(first.results)
        assert cache.stores == runs and cache.hits == 0

        # Any attempt to actually simulate on the warm pass is a failure.
        def boom(payload):
            raise AssertionError("simulator run executed on warm cache")

        monkeypatch.setattr(campaign_mod, "_campaign_task", boom)
        warm_cache = RunCache(str(tmp_path))
        progress = []
        second = run_campaign(
            cache=warm_cache, progress=progress.append, **self.SMALL
        )
        assert warm_cache.hits == runs
        assert warm_cache.stores == 0
        assert second.format() == first.format()
        assert json.dumps(second.to_json_dict(), sort_keys=True) == json.dumps(
            first.to_json_dict(), sort_keys=True
        )
        assert progress and all(line.endswith("(cached)") for line in progress)

    def test_half_warm_cache_streams_progress_in_task_order(self, tmp_path):
        # Cache hits land before dispatch and pool runs in completion
        # order; the campaign alone orders the stream.  With every other
        # run cached and the rest on three workers, the progress lines
        # are a cold serial run's, and exactly the cached runs say so.
        cold = []
        run_campaign(
            cache=RunCache(str(tmp_path)), progress=cold.append, **self.SMALL
        )
        keys = [
            campaign_mod.campaign_task_key(
                campaign_task_payload(algorithm, config, 5, 1, 6, 3, 60_000)
            )
            for algorithm in self.SMALL["algorithms"]
            for config in campaign_mod.generate_fault_configs(1, [0])
        ]
        assert len(keys) == len(cold) == 30
        for key in keys[::2]:
            os.remove(RunCache(str(tmp_path))._path(key))
        warm = []
        run_campaign(
            jobs=3, cache=RunCache(str(tmp_path)), progress=warm.append,
            **self.SMALL,
        )
        cached = " (cached)"
        assert not any(line.endswith(cached) for line in cold)
        assert [line.replace(cached, "") for line in warm] == cold
        assert [
            index for index, line in enumerate(warm) if line.endswith(cached)
        ] == list(range(1, len(cold), 2))

    def test_fingerprint_change_invalidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FINGERPRINT_ENV, "code-version-a")
        cache = RunCache(str(tmp_path))
        run_campaign(cache=cache, **self.SMALL)
        stores = cache.stores
        assert stores > 0

        monkeypatch.setenv(FINGERPRINT_ENV, "code-version-b")
        cold = RunCache(str(tmp_path))
        run_campaign(cache=cold, **self.SMALL)
        assert cold.hits == 0
        assert cold.misses == stores
        assert cold.stores == stores

    def test_key_covers_all_parameters(self):
        from repro.faults.campaign import FaultConfig, campaign_task_key

        config = FaultConfig(name="clean", seed=0)
        base = campaign_task_payload("abd", config, 5, 1, 6, 4, 60_000)
        key = campaign_task_key(base)
        for field, value in (("n", 7), ("num_ops", 5), ("algorithm", "cas")):
            changed = dict(base, **{field: value})
            assert campaign_task_key(changed) != key, field
