"""Campaign analytics: folds, envelopes, anomaly flags, determinism."""

import json
import random
from types import SimpleNamespace

import pytest

from repro.faults.campaign import FaultConfig, run_campaign, run_chaos_workload
from repro.obs.analytics import (
    ANALYTICS_SCHEMA,
    analyze_campaign,
    downsample_series,
    format_analytics,
    max_concurrent_writes,
    storage_envelope_bits,
)
from repro.obs.registry import percentile
from repro.registers.catalog import build_client_system
from repro.workload.generator import run_random_workload

PARAMS = dict(
    algorithms=("abd", "casgc"), n=5, f=1, value_bits=6,
    seeds=[0], num_ops=6, max_ticks=8000,
)


@pytest.fixture(scope="module")
def report():
    return run_campaign(telemetry=True, **PARAMS)


@pytest.fixture(scope="module")
def doc(report):
    return analyze_campaign(report)


class TestHelpers:
    def test_percentile_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 0.50) == 5
        assert percentile(values, 0.90) == 9
        assert percentile(values, 0.99) == 10
        assert percentile([7], 0.50) == 7
        assert percentile([], 0.50) is None

    def test_max_concurrent_writes(self):
        def op(kind, start, end):
            return SimpleNamespace(
                kind=kind, invoke_step=start, response_step=end
            )

        ops = [
            op("write", 0, 10),
            op("write", 5, 15),   # overlaps the first
            op("write", 20, 30),  # disjoint
            op("read", 0, 100),   # reads never count
        ]
        assert max_concurrent_writes(ops) == 2
        # An unfinished write stays active to the end of the run.
        ops.append(op("write", 25, None))
        assert max_concurrent_writes(ops) == 2
        ops.append(op("write", 26, 27))
        assert max_concurrent_writes(ops) == 3
        assert max_concurrent_writes([]) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_max_concurrent_writes_matches_brute_force(self, seed):
        # Tie-free intervals, as a World produces them: every invoke and
        # response step is distinct.
        rng = random.Random(seed)
        steps = rng.sample(range(1, 200), 24)
        ops = []
        for i in range(12):
            start, end = sorted(steps[2 * i:2 * i + 2])
            ops.append(SimpleNamespace(
                kind=rng.choice(("write", "write", "read")),
                invoke_step=start,
                response_step=None if rng.random() < 0.2 else end,
            ))
        writes = [o for o in ops if o.kind == "write"]
        brute = max(
            (
                sum(
                    1 for w in writes
                    if w.invoke_step <= point
                    and (w.response_step is None or w.response_step > point)
                )
                for point in range(0, 201)
            ),
            default=0,
        )
        assert max_concurrent_writes(ops) == brute

    @pytest.mark.parametrize("algorithm", ["abd", "cas", "casgc"])
    def test_world_operation_steps_are_tie_free(self, algorithm):
        # The contract max_concurrent_writes relies on: no two invoke or
        # response steps of a World's operations coincide.
        random_run = build_client_system(algorithm, 5, 1, 6)
        run_random_workload(random_run, 40, seed=3)
        chaos_run = build_client_system(algorithm, 5, 1, 6)
        run_chaos_workload(
            chaos_run, FaultConfig(name="dups", seed=3, duplicate_probability=0.2),
            num_ops=40,
        )
        for handle in (random_run, chaos_run):
            steps = [
                step
                for op in handle.world.operations
                for step in (op.invoke_step, op.response_step)
                if step is not None
            ]
            assert len(steps) > 40
            assert len(steps) == len(set(steps))

    def test_downsample_bounded_and_stable(self):
        points = [(i, float(i)) for i in range(1000)]
        out = downsample_series(points, limit=100)
        assert len(out) <= 101
        assert out[0] == [0, 0.0] and out[-1] == [999, 999.0]
        assert downsample_series(points, limit=100) == out
        short = [(0, 1.0), (5, 2.0)]
        assert downsample_series(short) == [[0, 1.0], [5, 2.0]]

    def test_envelope_formulas(self):
        # ABD: every server always stores exactly one full value.
        assert storage_envelope_bits("abd", 5, 6, writes=9) == 30.0
        # Coded: at most one element per version ever written.
        assert storage_envelope_bits("cas", 5, 6, writes=3,
                                     symbol_bits=2.0) == 40.0
        assert storage_envelope_bits("casgc", 5, 6, writes=3,
                                     symbol_bits=2.0) == 40.0
        assert storage_envelope_bits("cas", 5, 6, writes=3) is None
        assert storage_envelope_bits("unknown", 5, 6, writes=3) is None


class TestAnalyzeCampaign:
    def test_schema_and_bucketing(self, report, doc):
        assert doc["schema"] == ANALYTICS_SCHEMA
        assert doc["runs"] == len(report.results)
        assert doc["telemetry_runs"] == doc["runs"]
        assert sum(doc["verdicts"].values()) == doc["runs"]
        assert set(doc["algorithms"]) == {"abd", "casgc"}

    def test_phase_percentiles_cover_all_algorithms(self, doc):
        abd = doc["algorithms"]["abd"]["phases"]
        casgc = doc["algorithms"]["casgc"]["phases"]
        assert {"op/read", "op/write", "write/query"} <= set(abd)
        assert {"read/query", "write/pre-write", "write/finalize"} <= set(casgc)
        stats = abd["op/write"]
        assert stats["count"] > 0
        assert stats["p50"] <= stats["p90"] <= stats["p99"] <= stats["max"]

    def test_storage_envelopes_and_bounds(self, doc):
        for algorithm, section in doc["algorithms"].items():
            storage = section["storage"]
            assert storage["peak_total_bits"] > 0
            assert storage["envelope"], algorithm
            peaks = [v for _, v in storage["envelope"]]
            assert max(peaks) == storage["peak_total_bits"]
            # The hard envelope prediction holds on every clean-ish run.
            assert storage["peak_total_bits"] <= storage["envelope_bound_bits"]
            theorems = {row["theorem"] for row in storage["bounds"]}
            assert {"theorem_b1", "theorem_41", "theorem_51",
                    "theorem_65"} <= theorems
            refs = section["storage"]["reference_bounds_bits"]
            assert refs["bks_integrated_bits"] is not None
        assert doc["algorithms"]["casgc"]["storage"]["gc_expected_bits"] > 0

    def test_expected_anomalies_flagged(self, doc):
        kinds = {(a["algorithm"], a["kind"], a["detail"])
                 for a in doc["anomalies"]}
        # The grid's two intentional stall shapes are diagnosed, never
        # silent; no clean run exceeds its storage envelope.
        for algorithm in ("abd", "casgc"):
            assert (algorithm, "diagnosed-stall", "partition-isolated") in kinds
            assert (algorithm, "diagnosed-stall", "quorum-unavailable") in kinds
        assert not any(a["kind"] == "storage-over-envelope"
                       for a in doc["anomalies"])

    def test_inflated_peak_triggers_envelope_anomaly(self, report):
        import copy

        rigged = copy.deepcopy(report)
        victim = next(r for r in rigged.results if r.algorithm == "abd")
        victim.telemetry["storage"]["peak_total_bits"] = 1e9
        flagged = analyze_campaign(rigged)["anomalies"]
        assert any(
            a["kind"] == "storage-over-envelope" and a["algorithm"] == "abd"
            for a in flagged
        )

    def test_verdict_counter_emitted_per_run(self, report):
        for r in report.results:
            counters = r.telemetry["counters"]
            assert counters["faults.verdict." + r.verdict()] >= 1

    def test_format_smoke(self, doc):
        text = format_analytics(doc)
        assert "campaign analytics" in text
        assert "per-phase latency" in text
        assert "anomalies" in text

    def test_telemetry_free_report_degrades_gracefully(self):
        plain = run_campaign(algorithms=("abd",), n=5, f=1, value_bits=6,
                             seeds=[0], num_ops=4, max_ticks=8000)
        doc = analyze_campaign(plain)
        assert doc["telemetry_runs"] == 0
        assert doc["algorithms"]["abd"]["phases"] == {}
        assert doc["algorithms"]["abd"]["storage"]["peak_total_bits"] is None
        format_analytics(doc)  # must not crash


class TestDeterminism:
    def test_analytics_byte_identical_at_any_jobs(self):
        docs = {}
        for jobs in (1, 4):
            report = run_campaign(jobs=jobs, telemetry=True, **PARAMS)
            docs[jobs] = json.dumps(
                analyze_campaign(report), sort_keys=True, indent=2
            )
        assert docs[1] == docs[4]

    def test_chaos_json_verdict_bucket(self, report):
        summary = report.to_json_dict()["summary"]
        assert sum(summary["verdicts"].values()) == len(report.results)
        for entry in report.to_json_dict()["runs"]:
            assert "verdict" in entry
            assert entry["peak_total_bits"] is not None
