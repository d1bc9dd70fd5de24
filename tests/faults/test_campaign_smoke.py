"""CI smoke profile of the chaos campaign.

A deliberately small sweep (one seed, N=5, f=1, few ops) of the same
grid ``make chaos`` runs in full, so every fault-injection path —
drops, duplication, reordering, partitions (healing and permanent),
crash-recovery, over-budget crashes — is exercised on every PR.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.campaign import (
    FAULT_SHAPES,
    FaultConfig,
    generate_fault_configs,
    run_campaign,
    run_chaos_workload,
    write_report,
)
from repro.registers.catalog import build_client_system


@pytest.fixture(scope="module")
def smoke_report():
    return run_campaign(
        algorithms=("abd", "cas", "casgc"),
        n=5,
        f=1,
        value_bits=6,
        seeds=[0],
        num_ops=6,
    )


class TestCampaignSmoke:
    def test_campaign_passes(self, smoke_report):
        assert smoke_report.passed, smoke_report.format()

    def test_safety_holds_under_every_fault_mix(self, smoke_report):
        assert all(r.safety_ok for r in smoke_report.results)

    def test_liveness_within_budget(self, smoke_report):
        for r in smoke_report.results:
            if r.config.expect_liveness:
                assert r.live, f"{r.algorithm}/{r.config.label()}: {r.verdict()}"

    def test_no_silent_hangs(self, smoke_report):
        for r in smoke_report.results:
            if not r.live:
                assert r.diagnosis is not None, (
                    f"{r.algorithm}/{r.config.label()} hung without diagnosis"
                )

    def test_adversarial_shapes_actually_injected(self, smoke_report):
        by_name = {}
        for r in smoke_report.results:
            stats = by_name.setdefault(r.config.name, {"drops": 0, "duplicates": 0,
                                                       "reorders": 0, "partitions": 0})
            for key in stats:
                stats[key] += r.fault_stats.get(key, 0)
        assert by_name["drops"]["drops"] > 0
        assert by_name["dups"]["duplicates"] > 0
        assert by_name["reorder"]["reorders"] > 0
        assert by_name["partition-heal"]["partitions"] > 0
        crashes = sum(r.crashes for r in smoke_report.results
                      if r.config.name == "crash-recover")
        recoveries = sum(r.recoveries for r in smoke_report.results
                         if r.config.name == "crash-recover")
        assert crashes > 0 and recoveries > 0

    def test_permanent_partition_and_over_budget_get_diagnosed(self, smoke_report):
        stalled = [r for r in smoke_report.results if not r.live]
        assert stalled, "expected at least one diagnosed stall in the grid"
        assert all(
            not r.config.expect_liveness for r in stalled
        ), "a within-budget run stalled"
        verdicts = {r.diagnosis.verdict for r in stalled}
        assert verdicts <= {
            "partition-isolated",
            "quorum-unavailable",
            "deadlock",
            "message-loss-starvation",
            "step-budget-exhausted",
        }

    def test_every_algorithm_covered(self, smoke_report):
        counts = smoke_report.configs_per_algorithm()
        assert set(counts) == {"abd", "cas", "casgc"}
        assert all(count == len(FAULT_SHAPES) for count in counts.values())

    def test_single_writer_algorithm_rejected(self):
        # Only the MWMR-atomic catalog systems fit the campaign's checker.
        with pytest.raises(ConfigurationError):
            run_campaign(algorithms=("abd", "coded-swmr"), seeds=[0], cache=None)

    def test_report_roundtrip(self, smoke_report, tmp_path):
        path = tmp_path / "chaos.txt"
        write_report(smoke_report, str(path))
        text = path.read_text()
        assert "campaign PASSED" in text
        assert "partition-forever" in text


class TestConfigGeneration:
    def test_grid_size_meets_acceptance(self):
        # >= 20 seeded fault configurations per algorithm at 2 seeds.
        configs = generate_fault_configs(f=1, seeds=[0, 1])
        assert len(configs) >= 20
        assert len({c.label() for c in configs}) == len(configs)

    def test_budget_shapes_resolve_target_count(self):
        configs = generate_fault_configs(f=2, seeds=[0])
        drops = next(c for c in configs if c.name == "drops")
        assert drops.fault_target_count == 2

    def test_run_determinism(self):
        def run():
            handle = build_client_system("abd", 5, 1, 6)
            config = FaultConfig(
                name="det",
                seed=5,
                drop_probability=0.3,
                duplicate_probability=0.1,
                fault_target_count=1,
                crash_recovery=True,
            )
            result = run_chaos_workload(handle, config, num_ops=6)
            return (
                result.invoked,
                result.completed,
                result.steps,
                result.fault_stats,
                [(o.kind, o.value) for o in handle.world.operations],
            )

        assert run() == run()
