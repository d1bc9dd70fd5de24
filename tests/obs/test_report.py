"""MetricsReport: bound comparison rows, deterministic JSON, rendering."""

import json

import pytest

from repro.core.bounds import singleton_total_bits
from repro.obs.analytics import max_concurrent_writes
from repro.obs.recorder import SimObserver
from repro.obs.report import (
    MetricsReport,
    REPORT_SCHEMA,
    format_bound_rows,
    storage_bound_rows,
)
from repro.registers.cas import build_cas_system
from repro.workload.generator import run_random_workload


def _rows_by_key(rows):
    return {(r["theorem"], r["scope"]): r for r in rows}


def _report(num_ops, seed, include_bounds=True):
    """Attach an observer to a CAS system, run, and report on the run."""
    handle = build_cas_system(n=5, f=1, value_bits=12)
    observer = handle.world.obs = SimObserver()
    result = run_random_workload(handle, num_ops, seed=seed)
    nu = max(1, max_concurrent_writes(handle.world.operations))
    meta = {
        "algorithm": handle.algorithm, "seed": seed,
        "steps": result.steps, "nu_observed": nu,
    }
    bound_rows = None
    if include_bounds:
        series = observer.registry.series
        bound_rows = storage_bound_rows(
            handle.n, handle.f, handle.value_bits, nu,
            series["storage.total_bits"].max_value(),
            series["storage.max_server_bits"].max_value(),
        )
    return MetricsReport(meta, observer, bound_rows=bound_rows)


class TestStorageBoundRows:
    def test_all_eight_rows_present(self):
        rows = storage_bound_rows(5, 2, 8, 2, 1000.0, 200.0)
        assert len(rows) == 8
        keys = {(r["theorem"], r["scope"]) for r in rows}
        assert keys == {
            (t, s)
            for t in ("theorem_b1", "theorem_41", "theorem_51", "theorem_65")
            for s in ("total", "max")
        }

    def test_satisfied_when_observed_meets_bound(self):
        bound = singleton_total_bits(5, 2, 2 ** 8)
        rows = _rows_by_key(storage_bound_rows(5, 2, 8, 2, bound, bound))
        assert rows[("theorem_b1", "total")]["status"] == "satisfied"
        assert rows[("theorem_b1", "total")]["bound_bits"] == bound

    def test_violated_when_observed_below_bound(self):
        rows = _rows_by_key(storage_bound_rows(5, 2, 8, 2, 0.5, 0.1))
        assert rows[("theorem_b1", "total")]["status"] == "VIOLATED"

    def test_theorem_41_inapplicable_at_f_below_2(self):
        rows = _rows_by_key(storage_bound_rows(5, 1, 8, 2, 100.0, 20.0))
        row = rows[("theorem_41", "total")]
        assert row["status"] == "n/a"
        assert row["bound_bits"] is None
        assert row["note"]  # the BoundError message survives into the row
        assert rows[("theorem_b1", "total")]["status"] == "satisfied"

    def test_unmeasured_when_no_observation(self):
        rows = _rows_by_key(storage_bound_rows(5, 2, 8, 2, None, None))
        assert rows[("theorem_b1", "total")]["status"] == "unmeasured"


class TestJson:
    @pytest.fixture
    def report(self):
        return _report(num_ops=8, seed=2)

    def test_schema_and_sections(self, report):
        doc = report.to_json_dict()
        assert doc["schema"] == REPORT_SCHEMA
        for section in ("meta", "counters", "gauges", "histograms",
                        "series", "spans", "bounds"):
            assert section in doc
        assert doc["meta"]["algorithm"] == "cas"
        assert doc["meta"]["nu_observed"] >= 1
        assert doc["spans"]["open"] == []
        assert doc["spans"]["unmatched_ends"] == []

    def test_observed_max_meets_theorem_b1(self, report):
        rows = _rows_by_key(report.to_json_dict()["bounds"])
        row = rows[("theorem_b1", "total")]
        assert row["status"] == "satisfied"
        assert row["observed_bits"] >= row["bound_bits"]

    def test_byte_identical_across_same_seed_runs(self):
        payloads = [_report(num_ops=8, seed=2).to_json() for _ in range(2)]
        assert payloads[0] == payloads[1]

    def test_write_json_and_jsonl(self, report, tmp_path):
        json_path = tmp_path / "report.json"
        jsonl_path = tmp_path / "series.jsonl"
        report.write_json(str(json_path))
        report.write_series_jsonl(str(jsonl_path))

        doc = json.loads(json_path.read_text())
        assert doc["schema"] == REPORT_SCHEMA

        lines = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert lines
        assert set(lines[0]) == {"series", "step", "value"}
        names = {l["series"] for l in lines}
        assert "storage.total_bits" in names

    def test_include_bounds_false_omits_section(self):
        doc = _report(num_ops=8, seed=2, include_bounds=False).to_json_dict()
        assert "bounds" not in doc


class TestFormat:
    def test_sections_render(self):
        text = _report(num_ops=6, seed=0).format()
        for fragment in ("metrics report", "counters", "spans (steps)",
                         "time series", "lower bounds"):
            assert fragment in text
        assert "WARNING" not in text  # clean run: no orphan spans

    def test_bound_table(self):
        rows = storage_bound_rows(5, 1, 4, 1, 75.0, None)
        table = format_bound_rows(rows)
        lines = table.splitlines()
        assert lines[0].split() == ["theorem", "scope", "bound", "observed", "status"]
        assert lines[3].split() == ["theorem_b1", "max", "1.00", "n/a", "unmeasured"]
        assert lines[4].split() == ["theorem_41", "total", "n/a", "75.00", "n/a"]
        assert all(line.startswith("  ") for line in lines)
        report = MetricsReport({}, SimObserver(), bound_rows=rows).format()
        assert report.endswith(
            "\nobserved peak storage vs lower bounds (bits)\n" + table
        )

    def test_empty_observer_renders(self):
        report = MetricsReport({"algorithm": "none"}, SimObserver())
        text = report.format()
        assert "metrics report" in text

    def test_orphan_span_warning(self):
        obs = SimObserver()
        obs.spans.begin("c", "op/write", 0)
        obs.spans.end("c", "never-opened", 1)
        report = MetricsReport({}, obs)
        text = report.format()
        assert "never closed" in text
        assert "unmatched" in text
