"""The benchmark's workloads: what one pass runs and how it is checked.

Every workload is a sequence of *passes*; a pass is one user-level
request made through the public API, and its *runs* are the units of
work inside it:

* ``chaos`` — ``run_campaign`` over one campaign seed: ABD, CAS and
  CASGC under the whole ten-shape fault grid, serial and in-process
  (the ``repro chaos`` default path).  30 runs per pass.
* ``chaos-analyze`` — the same campaign with per-run telemetry and the
  ``analyze_campaign`` fold (the ``repro chaos --analyze`` path), so
  the observer and tracing layer is on the critical path.
* ``chaos-pool`` — two campaign seeds (60 runs) fanned over a two-worker
  pool with a crash-safe journal: payload codec, IPC and journal
  writes are on the critical path.
* ``explore`` — ``repro explore`` as its defaults run it: every
  schedule of a write concurrent with a read on SWMR-ABD (N=3, f=1),
  from the invocations on, no partial-order reduction.  1 exploration
  (9,629 states) per pass.
* ``figure1`` — the measured Figure 1: ``empirical_figure1`` over a
  grid of (N, f) and four write-concurrency levels.  24 measured
  points per pass.

The seed picks the campaign seeds (fault randomness and workloads),
the written values and the visiting order.  It never changes how much
work a pass holds, so figures from different seeds are comparable.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Tuple

ALGORITHMS = ("abd", "cas", "casgc")
N, F, VALUE_BITS, NUM_OPS = 5, 1, 6, 10


class Chaos:
    """Serial chaos campaign, one campaign seed per pass."""

    jobs = 1
    telemetry = False
    seeds_per_pass = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reference = ""

    def campaign_seeds(self, index: int) -> List[int]:
        base = self.seed * 1_000_000 + index * self.seeds_per_pass
        return list(range(base, base + self.seeds_per_pass))

    def setup(self) -> None:
        from repro.parallel.fingerprint import code_fingerprint

        import repro.faults.campaign  # noqa: F401

        code_fingerprint()

    def campaign(self, index: int, jobs: int, journal=None):
        from repro.faults.campaign import run_campaign

        return run_campaign(
            algorithms=ALGORITHMS,
            n=N,
            f=F,
            value_bits=VALUE_BITS,
            seeds=self.campaign_seeds(index),
            num_ops=NUM_OPS,
            jobs=jobs,
            cache=None,
            telemetry=self.telemetry,
            journal=journal,
        )

    def expected_runs(self) -> int:
        return 10 * len(ALGORITHMS) * self.seeds_per_pass

    def failed_runs(self, report) -> int:
        """Runs that broke the campaign contract, plus one for a short
        report or any engine timeout, retry or serial fallback."""
        failed = len(report.failures())
        if len(report.results) != self.expected_runs():
            failed += 1
        if any(report.runtime.values()):
            failed += 1
        return failed

    def output(self, report) -> str:
        """The pass's canonical output bytes."""
        return json.dumps(report.to_json_dict(), sort_keys=True)

    def finish(self, index: int, report) -> Tuple[int, int]:
        failed = self.failed_runs(report)
        if index == 0:  # the warm-up pass, re-run by check()
            self.reference = self.output(report)
        return len(report.results), failed

    def run_pass(self, index: int) -> Tuple[int, int]:
        return self.finish(index, self.campaign(index, self.jobs))

    def check(self) -> List[str]:
        """Re-run the warm-up pass serially: its output must be
        byte-identical (determinism, and pool output == serial)."""
        if self.output(self.campaign(0, jobs=1)) != self.reference:
            return [f"{type(self).__name__}: pass 0 output differs on re-run"]
        return []

    def close(self) -> None:
        pass


class ChaosAnalyze(Chaos):
    """Chaos campaign with per-run telemetry, folded into analytics."""

    telemetry = True

    def setup(self) -> None:
        super().setup()
        import repro.obs.analytics  # noqa: F401

    def failed_runs(self, report) -> int:
        """Also count analytics that miss telemetry or flag storage
        above its envelope."""
        from repro.obs.analytics import analyze_campaign

        doc = analyze_campaign(report)
        failed = super().failed_runs(report)
        if doc["telemetry_runs"] != len(report.results):
            failed += 1
        bad = {"storage-over-envelope", "quarantined-run"}
        return failed + sum(1 for a in doc["anomalies"] if a["kind"] in bad)

    def output(self, report) -> str:
        from repro.obs.analytics import analyze_campaign

        return super().output(report) + json.dumps(
            analyze_campaign(report), sort_keys=True
        )


class ChaosPool(Chaos):
    """Chaos campaign over a two-worker pool, journaled."""

    jobs = 2
    seeds_per_pass = 2

    def journal_path(self) -> str:
        return os.path.join(self.workdir, "campaign.journal")

    def journal_meta(self, index: int) -> dict:
        from repro.faults.campaign import campaign_journal_meta

        return campaign_journal_meta(
            ALGORITHMS, N, F, VALUE_BITS, self.campaign_seeds(index),
            NUM_OPS, 60_000,
        )

    def setup(self) -> None:
        super().setup()
        from repro.parallel.pool import get_pool

        import repro.parallel.journal  # noqa: F401

        get_pool(self.jobs)

    def run_pass(self, index: int) -> Tuple[int, int]:
        from repro.parallel.journal import CampaignJournal

        journal = CampaignJournal.create(
            self.journal_path(), self.journal_meta(index)
        )
        try:
            report = self.campaign(index, self.jobs, journal=journal)
        finally:
            journal.close()
        self.last_index = index
        return self.finish(index, report)

    def check(self) -> List[str]:
        """Also: the last pass's journal resumes with every run."""
        from repro.parallel.journal import CampaignJournal

        problems = super().check()
        journal = CampaignJournal.resume(
            self.journal_path(), self.journal_meta(self.last_index)
        )
        journal.close()
        if journal.loaded != self.expected_runs():
            problems.append(
                f"chaos-pool: journal resumed {journal.loaded} of "
                f"{self.expected_runs()} runs"
            )
        return problems

    def close(self) -> None:
        from repro.parallel.pool import shutdown_pool

        shutdown_pool()


#: ``repro explore`` with its defaults: SWMR-ABD on N=3, f=1, 2-bit
#: values, write(v) || read explored from right after the invocations,
#: without partial-order reduction.  (With these defaults the
#: multi-writer algorithms hit the 100,000-state budget unexhausted.)
EXPLORE_ALGORITHM = "swmr-abd"
EXPLORE_N, EXPLORE_F, EXPLORE_VALUE_BITS = 3, 1, 2
EXPLORE_MAX_STATES = 100_000


class Explore:
    """``repro explore``: exhaustive write||read exploration, one per pass."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.size: Tuple[int, int] = (0, 0)
        self.first_value = 0
        self.problems: List[str] = []

    @staticmethod
    def explore(value: int):
        """What ``repro explore`` runs, with ``value`` written."""
        from repro.cli import ALGORITHMS as BUILDERS
        from repro.verification.explore import explore_all_schedules

        def build():
            handle = BUILDERS[EXPLORE_ALGORITHM](
                EXPLORE_N, EXPLORE_F, EXPLORE_VALUE_BITS
            )
            world = handle.world
            world.invoke_write(handle.writer_ids[0], value)
            world.invoke_read(handle.reader_ids[0])
            return world

        return explore_all_schedules(build, max_states=EXPLORE_MAX_STATES)

    def setup(self) -> None:
        import repro.cli  # noqa: F401
        import repro.verification.explore  # noqa: F401

    def run_pass(self, index: int) -> Tuple[int, int]:
        value = self.rng.randint(1, 2 ** EXPLORE_VALUE_BITS - 1)
        result = self.explore(value)
        size = (result.states_visited, result.executions_checked)
        failed = 0 if result.exhausted and result.ok else 1
        if index == 0:  # the warm-up pass, re-run by check()
            self.size, self.first_value = size, value
        # The written value is data only: it must not change the shape
        # of the schedule space.
        elif size != self.size:
            failed += 1
            self.problems.append(
                f"explore: value {value} explored {size}, earlier {self.size}"
            )
        return 1, failed

    def check(self) -> List[str]:
        """Re-explore the warm-up pass: identical state and execution
        counts (the explorer is deterministic)."""
        problems = list(self.problems)
        result = self.explore(self.first_value)
        size = (result.states_visited, result.executions_checked)
        if size != self.size or not (result.exhausted and result.ok):
            problems.append(f"explore: re-run explored {size}, first {self.size}")
        return problems

    def close(self) -> None:
        pass


FIGURE1_GRID = ((7, 3), (9, 4), (11, 5))
FIGURE1_NUS = (1, 2, 4, 6)


class Figure1:
    """Measured Figure 1 over a grid of (N, f)."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.reference: Dict[Tuple[int, int, int], Tuple[float, float]] = {}

    def setup(self) -> None:
        import repro.analysis.empirical  # noqa: F401

    @staticmethod
    def wrong_points(n: int, f: int, series: dict) -> int:
        """Measured points off the paper's curves.

        ABD stores one full value per server (N); rate-optimal CAS
        stores the initial and ν written versions, one 1/(N-f) symbol
        each per server; both sit on or above the lower bounds.
        """
        wrong = 0
        for i, nu in enumerate(series["nu"]):
            abd = series["measured_abd"][i]
            cas = series["measured_cas"][i]
            if abd != n or abd < series["theorem51"][i]:
                wrong += 1
            if abs(cas - (nu + 1) * n / (n - f)) > 1e-9 or cas < series["theorem65"][i]:
                wrong += 1
        return wrong

    def run_pass(self, index: int) -> Tuple[int, int]:
        from repro.analysis.empirical import empirical_figure1

        grid = list(FIGURE1_GRID)
        self.rng.shuffle(grid)
        points = failed = 0
        for n, f in grid:
            nus = list(FIGURE1_NUS)
            self.rng.shuffle(nus)
            series = empirical_figure1(n=n, f=f, nus=nus, jobs=1)
            points += 2 * len(nus)
            failed += self.wrong_points(n, f, series)
            for i, nu in enumerate(nus):
                self.reference.setdefault(
                    (n, f, nu),
                    (series["measured_abd"][i], series["measured_cas"][i]),
                )
        return points, failed

    def check(self) -> List[str]:
        """Every measured point must repeat exactly on re-measurement."""
        from repro.analysis.empirical import empirical_figure1

        problems = []
        for n, f in FIGURE1_GRID:
            series = empirical_figure1(n=n, f=f, nus=FIGURE1_NUS, jobs=1)
            for i, nu in enumerate(FIGURE1_NUS):
                got = (series["measured_abd"][i], series["measured_cas"][i])
                if got != self.reference[(n, f, nu)]:
                    problems.append(f"figure1: N={n} f={f} nu={nu} measured {got}")
        return problems

    def close(self) -> None:
        pass


WORKLOADS = {
    "chaos": Chaos,
    "chaos-analyze": ChaosAnalyze,
    "chaos-pool": ChaosPool,
    "explore": Explore,
    "figure1": Figure1,
}
