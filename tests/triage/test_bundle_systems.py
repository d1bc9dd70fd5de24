"""Bundles rebuild the system their run was built on.

A chaos bundle's ``builder_params`` must rebuild the system the
campaign task built, Byzantine budget included, and an explore
bundle's the system ``repro explore`` built; otherwise a replay runs
another system than the one that failed.
"""

import pytest

import repro.faults.campaign as campaign_mod
from repro.cli import ALGORITHMS
from repro.faults.campaign import (
    ChaosRunResult,
    campaign_task_payload,
    generate_fault_configs,
    quarantined_result,
)
from repro.registers.catalog import (
    ALGORITHM_NAMES,
    MULTI_WRITER,
    build_client_system,
)
from repro.triage.bundle import (
    bundle_from_exploration,
    bundle_from_quarantine,
    bundle_from_result,
)

N, F, VALUE_BITS, NUM_OPS, MAX_TICKS = 5, 1, 6, 3, 4000


def _system(handle):
    """What tells two built systems apart: their pids and parameters."""
    return sorted(handle.world.processes), handle.params


def _rebuilt(bundle):
    return build_client_system(
        bundle.algorithm, bundle.n, bundle.f, bundle.value_bits,
        **bundle.builder_params,
    )


@pytest.mark.parametrize("algorithm", MULTI_WRITER)
@pytest.mark.parametrize(
    "config",
    generate_fault_configs(F, [0], byzantine=1),
    ids=lambda config: config.name,
)
def test_chaos_bundles_rebuild_the_campaign_system(
    algorithm, config, monkeypatch
):
    built = []
    run = campaign_mod.run_chaos_workload

    def spy(handle, *args, **kwargs):
        built.append(_system(handle))
        return run(handle, *args, **kwargs)

    monkeypatch.setattr(campaign_mod, "run_chaos_workload", spy)
    payload = campaign_task_payload(
        algorithm, config, N, F, VALUE_BITS, NUM_OPS, MAX_TICKS
    )
    data = campaign_mod._campaign_task(payload)
    result = ChaosRunResult.from_cache_dict(data)
    (campaign_system,) = built
    seeded = bundle_from_quarantine(
        quarantined_result(payload, attempts=2), N, F, VALUE_BITS, NUM_OPS,
        max_ticks=MAX_TICKS,
    )
    scripted = bundle_from_result(
        result, N, F, VALUE_BITS, max_ticks=MAX_TICKS
    )
    assert _system(_rebuilt(seeded)) == campaign_system
    assert _system(_rebuilt(scripted)) == campaign_system


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_explore_bundles_rebuild_the_explored_system(algorithm):
    bundle = bundle_from_exploration(
        algorithm, N, F, VALUE_BITS, ops=[], schedule=()
    )
    explored = ALGORITHMS[algorithm](N, F, VALUE_BITS)
    assert _system(_rebuilt(bundle)) == _system(explored)
