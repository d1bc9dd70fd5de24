PYTHON ?= python

.PHONY: install test bench campaign-scale perfbench resume-smoke examples verify-proofs explore-all figure1 chaos byzantine-smoke sweep metrics-smoke trace-smoke shrink-smoke golden docs-check clean

install:
	pip install -e . --no-build-isolation

# The whole suite is the gate: every test is deterministic and none
# asserts on wall clock (timing lives in `make perfbench`).
test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fleet scale: a 10,000-run chaos campaign (1000 seeds x the 10-shape
# fault grid, ABD) plus the full empirical Figure-1 sweep (N=21, f=10),
# both through the persistent pool at one worker per CPU.  Asserts the
# campaign contract on every run and records wall clock + per-run cost
# in benchmarks/results/BENCH_campaign_scale.json.
campaign-scale:
	$(PYTHON) -m benchmarks.bench_campaign_scale

# End-to-end and per-layer benchmark: every BENCHMARK.json workload at
# --trace 0 (pass_ms, runs_per_s, setup_s) and --trace 1 (per-layer
# self time and work counts), for the run length BENCHMARK.json sets.
# Prints a "# <workload> --trace <t>" line and the run's JSON line for
# each.  SEED picks the campaign seeds, values and visiting order.
SEED ?= 1
perfbench:
	@seconds=$$($(PYTHON) -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])'); \
	for w in $$($(PYTHON) -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
		for t in 0 1; do \
			echo "# $$w --trace $$t"; \
			out=$$($(PYTHON) perfbench/run.py --workload $$w --seed $(SEED) --seconds $$seconds --trace $$t) || exit 1; \
			echo "$$out" | tail -n 1; \
		done; \
	done

# Resilience smoke: run a journaled chaos campaign, SIGKILL it about
# halfway, resume from the journal, and assert the resumed JSON report
# is byte-identical to an uninterrupted reference run.  Also run by
# tests/perf/test_resume_smoke.py.
resume-smoke:
	$(PYTHON) -m benchmarks.resume_smoke

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

verify-proofs:
	$(PYTHON) -m repro verify --theorem b1 --algorithm swmr-abd
	$(PYTHON) -m repro verify --theorem 41 --algorithm swmr-abd --value-bits 2
	$(PYTHON) -m repro verify --theorem 65 --algorithm cas --n 5 --f 1 --nu 2

# Exhaustive write||read model check (repro explore, N=3, f=1) of every
# algorithm under the default 100,000-state budget, about 40 s on two
# CPUs.  Fails unless each search is exhausted, visits exactly the
# pinned number of states (a state key that merges or splits states
# fails it) and finds every explored execution atomic.  SWMR-ABD and
# ABD are keyed up to a relabelling of their servers; the coded
# algorithms are not.  Not part of the test suite.
explore-all:
	@for pinned in swmr-abd:455 coded-swmr:2555 abd:7230 cas:87102 casgc:87102; do \
		a=$${pinned%%:*}; states=$${pinned#*:}; \
		out=$$($(PYTHON) -m repro explore --algorithm $$a) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		case "$$out" in *": $$states states, "*"exhausted=True"*"atomic in every explored execution"*) ;; \
			*) echo "explore-all: $$a: expected exhausted=True at $$states states, all atomic"; exit 1;; \
		esac; \
	done

figure1:
	$(PYTHON) -m repro figure1 --plot

# Full chaos campaign: ABD/CAS/CASGC under 30 seeded fault configs each
# (drops, duplication, reordering, partitions, crash-recovery).  A small
# smoke profile of the same campaign runs in the default test suite
# (tests/faults/test_campaign_smoke.py), so fault paths are exercised on
# every PR; this target is the full sweep.  Runs fan out over 4 workers
# and land in benchmarks/.cache/ — the report is byte-identical at any
# job count, and a rerun with unchanged code replays cached results.
chaos:
	$(PYTHON) -m repro chaos --n 5 --f 1 --seeds 3 --jobs 4 \
		--json benchmarks/results/chaos_campaign.json

# Byzantine smoke: a small seeded campaign over ABD and CAS with one
# corrupt server per run (the Byzantine band from docs/byzantine.md),
# plus the determinism guard.  A single equivocation run asserting
# Degraded-not-violated lives in tests/faults/test_byzantine.py.
byzantine-smoke:
	$(PYTHON) -m pytest tests/faults/test_byzantine_campaign.py -q
	$(PYTHON) -m repro chaos --byzantine 1 --algorithms abd cas \
		--n 5 --f 1 --seeds 2 --ops 10 --jobs 4 --out "" \
		--json benchmarks/results/byzantine_smoke.json

# Section 2 parameter sweeps over the standard grids (same tables as
# benchmarks/bench_sweeps.py), parallel + cached.
sweep:
	$(PYTHON) -m repro sweep --jobs 4 --out benchmarks/results/sweeps.txt

# Quick observability check: instrumented CAS run with JSON export plus
# a per-phase profile.  Exercises the whole obs layer end to end.
metrics-smoke:
	$(PYTHON) -m repro metrics --algorithm cas -n 5 -f 1 --ops 10 \
		--json benchmarks/results/metrics_smoke.json
	$(PYTHON) -m repro profile --algorithm abd -n 5 -f 1 --ops 6

# Trace smoke: capture a causally-traced chaos run (repro.trace/1 plus
# the Chrome/Perfetto export), fold a chaos campaign into fleet
# analytics (repro.analytics/1), and assert the cost of tracing both
# ways: off calls no observer method and builds no trace event; on
# binds its instruments once, skips gauge writes that change nothing,
# builds only the trace events the tail keeps and takes no registry
# snapshot.  Artifacts land in benchmarks/results/; every one is
# byte-identical at any --jobs.
trace-smoke:
	$(PYTHON) -m repro trace capture --algorithm abd --shape kitchen-sink \
		--ops 10 --out benchmarks/results/trace_smoke.json --chrome
	$(PYTHON) -m repro chaos --algorithms abd cas --n 5 --f 1 --seeds 1 \
		--ops 6 --jobs 2 --out "" \
		--analytics benchmarks/results/analytics_smoke.json
	$(PYTHON) -m pytest tests/perf/test_work_counters.py -q \
		-k "tracing_off or telemetry"

# Triage smoke: rig an ABD safety violation (stale-tags tampering),
# ddmin-shrink the repro bundle, and assert the minimized workload is
# a fixed tiny repro.  The regression corpus under tests/corpus/ is
# replayed by tests/triage/test_corpus.py.
shrink-smoke:
	$(PYTHON) -m pytest tests/triage/test_shrink_smoke.py -q

# Regenerate the golden output set under tests/golden/ (a chaos campaign
# with the Byzantine band, the sweep tables, a metrics batch, a single
# metrics run as JSON and JSONL, a trace capture and its Chrome export,
# campaign analytics and a small measured Figure 1).  Tier-1
# tests/golden/test_golden.py diffs fresh builds at --jobs 1 and 2
# against these files; run this only when an output change is
# intentional, and commit the diff with it.
golden:
	$(PYTHON) -m tests.golden.build

# Docs-drift guard: every CLI verb and every src/repro package must be
# mentioned in the docs tree, and every module must carry a docstring.
docs-check:
	$(PYTHON) -m pytest tests/docs -q

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	rm -rf benchmarks/.cache
	find . -name __pycache__ -type d -exec rm -rf {} +
