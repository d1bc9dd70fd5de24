"""Determinism of the chaos driver under permanent crashes, per algorithm.

:func:`run_chaos_workload` promises a run that is a pure function of
(system, config, script, timeline): the entire execution (every
invocation, delivery and crash) repeats for the same seed.  This pins
that contract with a full-fidelity fingerprint (every field of the
World's history, the crash count and the step count), not just the
coarse value traces the safety tests use.
"""

import pytest

from repro.faults.campaign import FaultConfig, FaultTimeline, run_chaos_workload
from tests.faults.test_permanent_crashes import SYSTEMS


def fingerprint(name, seed):
    handle = SYSTEMS[name]()
    result = run_chaos_workload(
        handle,
        FaultConfig(name="crash", seed=seed),
        num_ops=8,
        timeline=FaultTimeline(crash_events=((handle.server_ids[-1], 10, None),)),
    )
    return (
        result.crashes,
        result.steps,
        tuple(
            (op.op_id, op.client, op.kind, op.value,
             op.invoke_step, op.response_step)
            for op in handle.world.operations
        ),
    )


@pytest.mark.parametrize("name", sorted(SYSTEMS))
class TestSameSeedSameExecution:
    def test_identical_fingerprint(self, name):
        first = fingerprint(name, 1234)
        assert first[0] == 1  # the crash fired inside the run
        assert fingerprint(name, 1234) == first
