PYTHON ?= python

.PHONY: install test test-tier1 bench bench-core bench-parallel campaign-scale perf-guard resume-smoke examples verify-proofs figure1 chaos byzantine-smoke sweep metrics-smoke trace-smoke shrink-smoke golden docs-check clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Tier-1 only: skip the heavier telemetry/benchmark tests.
test-tier1:
	$(PYTHON) -m pytest tests/ -m "not tier2"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Core hot-path rates (fork, enabled-channel query, exploration,
# checker), each against its legacy implementation.  Rewrites
# benchmarks/results/BENCH_core.json — commit it to refresh the perf
# baseline after an intentional performance change.
bench-core:
	$(PYTHON) -m benchmarks.bench_core

# Parallel-engine record: jobs-scaling curve, chunk ablation, legacy-
# vs-persistent engine comparison, dispatch microbench, byte-identity
# and warm-cache invariants.  Rewrites the measurement sections of
# benchmarks/results/BENCH_parallel.json (the campaign_scale section
# from `make campaign-scale` is preserved).
bench-parallel:
	$(PYTHON) -m benchmarks.bench_parallel

# Fleet scale: a 10,000-run chaos campaign (1000 seeds x the 10-shape
# fault grid, ABD) plus the full empirical Figure-1 sweep (N=21, f=10),
# both through the persistent pool at one worker per CPU.  Asserts the
# campaign contract on every run and records wall clock + per-run cost
# in the campaign_scale section of BENCH_parallel.json.  Tier-2; also
# wrapped by tests/perf/test_parallel_regression.py at smoke size.
campaign-scale:
	$(PYTHON) -m benchmarks.bench_campaign_scale

# Fail (exit 1) if any core speedup factor fell more than 30% below
# the committed BENCH_core.json baseline, or if the parallel engine
# breaks its gates (byte-identity, warm-cache zero runs, dispatch and
# engine speedup floors, CPU-tiered jobs speedup).  Also runs as
# tier-2 tests (tests/perf/test_core_regression.py and
# tests/perf/test_parallel_regression.py), excluded from tier-1.
perf-guard:
	$(PYTHON) -m benchmarks.perf_guard

# Tier-2 resilience smoke: run a journaled chaos campaign, SIGKILL it
# about halfway, resume from the journal, and assert the resumed JSON
# report is byte-identical to an uninterrupted reference run.  Also
# wired into perf-guard as the resume-resilience gate and wrapped by
# tests/perf/test_resume_smoke.py.
resume-smoke:
	$(PYTHON) -m benchmarks.resume_smoke

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

verify-proofs:
	$(PYTHON) -m repro verify --theorem b1 --algorithm swmr-abd
	$(PYTHON) -m repro verify --theorem 41 --algorithm swmr-abd --value-bits 2
	$(PYTHON) -m repro verify --theorem 65 --algorithm cas --n 5 --f 1 --nu 2

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

# Tier-2 Byzantine smoke: a small seeded campaign over ABD and CAS with
# one corrupt server per run (the Byzantine band from docs/byzantine.md),
# plus the determinism guard.  The tier-1 counterpart — a single
# equivocation run asserting Degraded-not-violated — lives in
# tests/faults/test_byzantine.py and runs on every PR.
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

# Tier-2 trace smoke: capture a causally-traced chaos run (repro.trace/1
# plus the Chrome/Perfetto export), fold a chaos campaign into fleet
# analytics (repro.analytics/1), and assert the tracing-off overhead
# budget (<3%) on the core fork/exploration paths.  Artifacts land in
# benchmarks/results/; every one is byte-identical at any --jobs.
trace-smoke:
	$(PYTHON) -m repro trace capture --algorithm abd --shape kitchen-sink \
		--ops 10 --out benchmarks/results/trace_smoke.json --chrome
	$(PYTHON) -m repro chaos --algorithms abd cas --n 5 --f 1 --seeds 1 \
		--ops 6 --jobs 2 --out "" \
		--analytics benchmarks/results/analytics_smoke.json
	$(PYTHON) -m pytest tests/perf/test_tracing_overhead.py -q

# Tier-2 triage smoke: rig an ABD safety violation (stale-tags
# tampering), ddmin-shrink the repro bundle, and assert the minimized
# workload is a fixed tiny repro.  The regression corpus under
# tests/corpus/ is replayed by tier-1 (tests/triage/test_corpus.py).
shrink-smoke:
	$(PYTHON) -m pytest tests/triage/test_shrink_smoke.py -q

# Regenerate the golden output set under tests/golden/ (a chaos campaign
# with the Byzantine band, the sweep tables, a metrics batch and a small
# measured Figure 1).  Tier-1 tests/golden/test_golden.py diffs fresh
# builds at --jobs 1 and 2 against these files; run this only when an
# output change is intentional, and commit the diff with it.
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
