"""Tests for the command-line interface."""

import pytest

from repro.cli import ALGORITHMS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["figure1"],
            ["bounds", "--nu", "3"],
            ["crossover", "--n", "9", "--f", "4"],
            ["classify", "--g", "2.0"],
            ["verify", "--theorem", "b1"],
            ["assumptions"],
            ["demo"],
            ["metrics", "--algorithm", "cas", "-n", "5", "-f", "1"],
            ["metrics", "--algorithm", "abd", "--json", "out.json"],
            ["metrics", "--algorithm", "cas", "--runs", "4", "--jobs", "2"],
            ["profile", "--algorithm", "abd", "--ops", "6"],
            ["chaos", "--json", "out.json"],
            ["chaos", "--jobs", "4", "--no-cache"],
            ["chaos", "--cache-dir", "/tmp/somewhere"],
            ["sweep"],
            ["sweep", "--jobs", "2", "--no-cache", "--out", "s.txt"],
            ["chaos", "--analyze"],
            ["chaos", "--analytics", "a.json"],
            ["trace", "capture", "--algorithm", "cas", "--shape", "drops"],
            ["trace", "capture", "--seeds", "3", "--chrome", "--jobs", "2"],
            ["trace", "export", "t.json", "--format", "chrome"],
            ["trace", "slice", "t.json", "--around", "100", "--radius", "20"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)


class TestCommands:
    def test_figure1(self, capsys):
        assert main(["figure1", "--nu-max", "4"]) == 0
        out = capsys.readouterr().out
        assert "ThmB.1" in out
        assert "1.909" in out

    def test_figure1_plot(self, capsys):
        assert main(["figure1", "--nu-max", "4", "--plot"]) == 0
        assert "theorem51" in capsys.readouterr().out

    def test_bounds(self, capsys):
        assert main(["bounds", "--n", "21", "--f", "10", "--nu", "5"]) == 0
        out = capsys.readouterr().out
        assert "best lower bound: 7.0000" in out

    def test_crossover(self, capsys):
        assert main(["crossover", "--n", "21", "--f", "10"]) == 0
        assert "nu = 6" in capsys.readouterr().out

    def test_classify_possible(self, capsys):
        assert main(["classify", "--g", "11", "--nu", "12"]) == 0

    def test_classify_impossible_exit_code(self, capsys):
        assert main(["classify", "--g", "1.0", "--nu", "1"]) == 1

    def test_verify_b1(self, capsys):
        code = main([
            "verify", "--theorem", "b1", "--algorithm", "swmr-abd",
            "--n", "5", "--f", "2", "--value-bits", "2",
        ])
        assert code == 0
        assert "yes" in capsys.readouterr().out

    def test_verify_41(self, capsys):
        code = main([
            "verify", "--theorem", "41", "--algorithm", "swmr-abd",
            "--n", "5", "--f", "2", "--value-bits", "2",
        ])
        assert code == 0

    def test_verify_65(self, capsys):
        code = main([
            "verify", "--theorem", "65", "--algorithm", "cas",
            "--n", "5", "--f", "1", "--nu", "2", "--value-bits", "2",
        ])
        assert code == 0

    def test_verify_65_unsupported_algorithm(self, capsys):
        code = main([
            "verify", "--theorem", "65", "--algorithm", "coded-swmr",
            "--n", "5", "--f", "1",
        ])
        assert code == 2

    def test_assumptions(self, capsys):
        assert main(["assumptions", "--algorithm", "cas"]) == 0
        assert "pre" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_demo_every_algorithm(self, capsys, algorithm):
        assert main(["demo", "--algorithm", algorithm]) == 0
        assert "read() -> 3" in capsys.readouterr().out


class TestNewCommands:
    def test_explore(self, capsys):
        assert main(["explore", "--max-states", "50000"]) == 0
        out = capsys.readouterr().out
        # `make explore-all` matches ": <states> states, " and the flag.
        assert ": 455 states, " in out
        assert "exhausted=True, symmetry_order=6" in out
        assert "atomic in every explored execution" in out

    def test_explore_budget(self, capsys):
        assert main(["explore", "--max-states", "50"]) == 0
        assert "exhausted=False" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_explore_budget_below_one_is_usage_error(self, capsys, budget):
        assert main(["explore", "--max-states", budget]) == 3
        out = capsys.readouterr().out
        assert "--max-states must be >= 1" in out
        assert "exhausted" not in out and "atomic" not in out

    @pytest.mark.parametrize("ops", ["0", "-1"])
    def test_chaos_ops_below_one_is_usage_error(self, capsys, ops):
        assert main(["chaos", "--ops", ops, "--out", "", "--no-cache"]) == 3
        out = capsys.readouterr().out
        assert "--ops must be >= 1" in out
        assert "PASSED" not in out and "FAIL" not in out

    def test_communication(self, capsys):
        assert main(["communication", "--algorithms", "abd"]) == 0
        out = capsys.readouterr().out
        assert "write" in out and "read" in out


class TestObservabilityCommands:
    def test_metrics_smoke(self, capsys):
        assert main([
            "metrics", "--algorithm", "cas", "-n", "5", "-f", "1", "--ops", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics report" in out
        assert "sim.messages_sent" in out
        assert "op/write" in out
        assert "theorem_b1" in out
        assert "satisfied" in out
        assert "VIOLATED" not in out

    def test_metrics_json_is_byte_identical_across_runs(self, capsys, tmp_path):
        import json

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "metrics", "--algorithm", "cas", "-n", "5", "-f", "1",
                "--ops", "8", "--seed", "3", "--json", str(path),
            ]) == 0
            capsys.readouterr()
        first, second = (p.read_bytes() for p in paths)
        assert first == second

        doc = json.loads(first)
        assert doc["schema"] == "repro.metrics/1"
        assert doc["counters"]["sim.messages_sent"] > 0
        assert doc["spans"]["stats"]["op/write"]["count"] > 0
        series = doc["series"]["storage.total_bits"]
        b1_total = next(
            row for row in doc["bounds"]
            if row["theorem"] == "theorem_b1" and row["scope"] == "total"
        )
        assert max(series["values"]) >= b1_total["bound_bits"]

    def test_metrics_jsonl(self, capsys, tmp_path):
        path = tmp_path / "series.jsonl"
        assert main([
            "metrics", "--algorithm", "abd", "-n", "5", "-f", "2",
            "--ops", "6", "--jsonl", str(path),
        ]) == 0
        assert "JSONL written" in capsys.readouterr().out
        assert path.read_text().count("\n") > 0

    def test_profile_smoke(self, capsys):
        assert main([
            "profile", "--algorithm", "abd", "-n", "5", "-f", "2", "--ops", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "steps/s" in out
        assert "wall_ms" in out
        assert "WARNING" not in out

    def test_chaos_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "chaos.json"
        assert main([
            "chaos", "--algorithms", "abd", "-n", "5", "-f", "1",
            "--seeds", "1", "--ops", "4", "--out", "", "--json", str(path),
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        assert f"JSON summary written to {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.chaos/1"
        assert doc["passed"] is True
        assert doc["summary"]["runs"] == len(doc["runs"])
        assert all(run["algorithm"] == "abd" for run in doc["runs"])

    def test_chaos_cache_stats_on_stdout_not_in_report(self, capsys, tmp_path):
        report = tmp_path / "chaos.txt"
        argv = [
            "chaos", "--algorithms", "abd", "-n", "5", "-f", "1",
            "--seeds", "1", "--ops", "3", "--out", str(report),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        assert "cache:" in first_out
        first_report = report.read_bytes()
        assert b"cache:" not in first_report

        # Warm rerun: all hits, byte-identical report file.
        assert main(argv) == 0
        assert "0 miss(es)" in capsys.readouterr().out
        assert report.read_bytes() == first_report

    def test_chaos_no_cache(self, capsys, tmp_path):
        assert main([
            "chaos", "--algorithms", "abd", "-n", "5", "-f", "1",
            "--seeds", "1", "--ops", "3", "--out", "",
            "--no-cache",
        ]) == 0
        assert "cache:" not in capsys.readouterr().out


class TestTraceCommands:
    def test_capture_export_slice_round_trip(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        assert main([
            "trace", "capture", "--algorithm", "abd", "-n", "5", "-f", "1",
            "--shape", "clean", "--ops", "4", "--max-ticks", "4000",
            "--out", str(trace), "--chrome",
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert "verdict live" in out

        doc = json.loads(trace.read_text())
        assert doc["schema"] == "repro.trace/1"
        assert doc["events"] and doc["spans"]

        # export --format chrome reproduces the capture-time sidecar.
        chrome_sidecar = tmp_path / "trace.chrome.json"
        exported = tmp_path / "exported.json"
        assert main([
            "trace", "export", str(trace), "--out", str(exported),
        ]) == 0
        capsys.readouterr()
        assert exported.read_bytes() == chrome_sidecar.read_bytes()

        # A slice is itself a valid trace document.
        around = doc["events"][len(doc["events"]) // 2]["step"]
        sliced = tmp_path / "slice.json"
        assert main([
            "trace", "slice", str(trace), "--around", str(around),
            "--radius", "10", "--out", str(sliced),
        ]) == 0
        capsys.readouterr()
        piece = json.loads(sliced.read_text())
        assert piece["schema"] == "repro.trace/1"
        assert piece["meta"]["slice"] == {"around": around, "radius": 10}
        assert len(piece["events"]) <= len(doc["events"])

    def test_capture_rejects_unknown_shape(self, capsys):
        assert main([
            "trace", "capture", "--shape", "nonsense",
        ]) == 3
        assert "unknown fault shape" in capsys.readouterr().out

    def test_chaos_analyze(self, capsys, tmp_path):
        import json

        path = tmp_path / "analytics.json"
        assert main([
            "chaos", "--algorithms", "abd", "-n", "5", "-f", "1",
            "--seeds", "1", "--ops", "4", "--out", "",
            "--cache-dir", str(tmp_path / "cache"),
            "--analyze", "--analytics", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign analytics" in out
        assert f"analytics written to {path}" in out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.analytics/1"
        assert doc["telemetry_runs"] == doc["runs"] > 0
        assert "abd" in doc["algorithms"]


class TestParallelCommands:
    def test_metrics_runs_batch(self, capsys):
        assert main([
            "metrics", "--algorithm", "cas", "-n", "5", "-f", "1",
            "--ops", "4", "--runs", "3", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics batch" in out
        assert "per-run summary" in out
        assert "merged counters" in out
        assert "VIOLATED" not in out

    def test_metrics_batch_json(self, capsys, tmp_path):
        import json

        from repro.obs.report import format_bound_rows

        path = tmp_path / "batch.json"
        assert main([
            "metrics", "--algorithm", "cas", "-n", "5", "-f", "1",
            "--ops", "4", "--runs", "2", "--json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.metrics-batch/1"
        assert len(doc["runs"]) == 2
        assert doc["merged"]["counters"]["sim.messages_sent"] > 0
        # The batch prints its bounds with the single-run report's table.
        assert (
            "\nobserved peak storage vs lower bounds (bits, worst run)\n"
            + format_bound_rows(doc["bounds"])
        ) in out

    def test_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "sweeps.txt"
        assert main([
            "sweep", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "Improvement over the Singleton-style bound" in out
        assert "cache:" in out
        text = out_file.read_text()
        assert "Finite-|V| convergence" in text
        assert "cache:" not in text

    def test_sweep_no_cache(self, capsys):
        assert main(["sweep", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "f proportional to N" in out
        assert "cache:" not in out
