"""Byzantine campaign: the full band over ABD and CAS.

The acceptance contract for ``repro chaos --byzantine 1``: the seeded
campaign is byte-identical at any ``--jobs`` count, masked corruption
surfaces as ``degraded`` (never as a safety violation), and the only
legitimate stalls are diagnosed ones.
"""

import json

from repro.faults.campaign import run_campaign


def _run(jobs=None):
    return run_campaign(
        algorithms=["abd", "cas"],
        n=5,
        f=1,
        value_bits=6,
        seeds=[0, 1],
        num_ops=10,
        max_ticks=8000,
        byzantine=1,
        jobs=jobs,
    )


def test_byzantine_campaign_passes_with_degradation():
    report = _run()
    assert report.passed
    byz_runs = [r for r in report.results if r.config.byzantine_count > 0]
    assert byz_runs
    # Masked corruption must be visible, and never cost safety.
    assert all(r.safety_ok for r in report.results)
    assert any(r.degraded for r in byz_runs)
    assert any(
        r.fault_stats.get("byzantine_corruptions", 0) > 0 for r in byz_runs
    )
    # The crash-composition shape may stall, but only diagnosed.
    for r in byz_runs:
        if not r.live:
            assert r.diagnosis is not None


def test_byzantine_campaign_deterministic_across_jobs():
    serial = json.dumps(_run(jobs=1).to_json_dict(), sort_keys=True)
    parallel = json.dumps(_run(jobs=4).to_json_dict(), sort_keys=True)
    assert serial == parallel
