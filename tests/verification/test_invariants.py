"""Tests for cross-server protocol invariants."""

import pytest

from repro.registers.abd import build_abd_system
from repro.registers.cas import build_cas_system
from repro.registers.casgc import build_casgc_system
from repro.registers.coded_swmr import build_coded_swmr_system
from repro.verification.invariants import (
    check_abd_invariants,
    check_cas_invariants,
    check_coded_invariants,
    check_invariants_during,
    invariant_checker_for,
)
from repro.workload.patterns import concurrent_writes_driver


class TestCleanRuns:
    def test_abd_workload_holds_invariants_every_step(self):
        handle = build_abd_system(n=5, f=2, value_bits=4, num_writers=3)
        steps = check_invariants_during(
            handle, concurrent_writes_driver([1, 2, 3])
        )
        assert steps > 0
        assert check_abd_invariants(handle) == []

    def test_cas_workload_holds_invariants_every_step(self):
        handle = build_cas_system(n=5, f=1, value_bits=12, num_writers=2)
        check_invariants_during(handle, concurrent_writes_driver([10, 20]))
        assert check_cas_invariants(handle) == []

    def test_casgc_workload(self):
        handle = build_casgc_system(
            n=5, f=1, value_bits=12, gc_depth=1, num_writers=2
        )
        check_invariants_during(handle, concurrent_writes_driver([10, 20]))

    def test_coded_swmr_workload(self):
        handle = build_coded_swmr_system(n=5, f=1, value_bits=12)
        handle.write(100)
        handle.write(200)
        handle.world.deliver_all()
        assert check_coded_invariants(handle) == []

    def test_invariants_hold_under_crashes(self):
        handle = build_cas_system(n=7, f=2, value_bits=12)
        handle.write(5)
        handle.crash_servers([5, 6])
        handle.write(6)
        handle.world.deliver_all()
        assert check_cas_invariants(handle) == []


class TestStepBudget:
    """An ABD n=3 f=1 write drains in 12 deliveries (see
    ``tests/sim/test_hot_path.py::TestDeliverAllBudget``)."""

    DRAIN = 12

    def _check(self, max_steps):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        self.world = handle.world
        return check_invariants_during(
            handle, concurrent_writes_driver([3]), max_steps=max_steps
        )

    def test_budget_equal_to_drain_count_returns(self):
        assert self._check(self.DRAIN) == self.DRAIN
        assert self.world.undelivered_channels() == []

    def test_budget_one_short_raises_after_exactly_that_many(self):
        with pytest.raises(AssertionError, match="within 11 steps"):
            self._check(self.DRAIN - 1)
        assert self.world.step_count == 1 + self.DRAIN - 1  # invoke + deliveries
        assert self.world.undelivered_channels() != []


class TestViolationDetection:
    def test_abd_tag_disagreement_detected(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)
        handle.write(5)
        # corrupt: one server holds a different value under the same tag
        handle.world.process("s001").value = 9
        violations = check_abd_invariants(handle)
        assert any("A1" in v for v in violations)

    def test_abd_unwritten_value_detected(self):
        from repro.registers.tags import Tag

        handle = build_abd_system(n=3, f=1, value_bits=4)
        handle.write(5)
        server = handle.world.process("s002")
        server.tag = Tag(9, "ghost")
        server.value = 13
        violations = check_abd_invariants(handle)
        assert any("A2" in v for v in violations)

    def test_cas_codeword_corruption_detected(self):
        handle = build_cas_system(n=5, f=1, value_bits=12)
        handle.write(5)
        handle.world.deliver_all()
        server = handle.world.process("s000")
        tag = max(server.store)  # the written tag
        server.store[tag][0] ^= 1  # flip a bit of the coded element
        violations = check_cas_invariants(handle)
        assert any("C1" in v for v in violations)

    def test_cas_unbacked_finalization_detected(self):
        from repro.registers.cas import FIN

        handle = build_cas_system(n=5, f=1, value_bits=12)
        handle.write(5)
        handle.world.deliver_all()
        # forge a finalized tag nobody has elements for
        server = handle.world.process("s000")
        server.store[(99, "w000")] = [None, FIN]
        violations = check_cas_invariants(handle)
        assert any("C2" in v for v in violations)

    def test_coded_corruption_detected(self):
        handle = build_coded_swmr_system(n=5, f=1, value_bits=12)
        handle.write(5)
        handle.world.deliver_all()
        server = handle.world.process("s000")
        tag = max(server.store)
        server.store[tag] ^= 1
        violations = check_coded_invariants(handle)
        assert any("S1" in v for v in violations)

    def test_check_during_raises_on_violation(self):
        handle = build_abd_system(n=3, f=1, value_bits=4)

        def corrupting_drive(h):
            h.world.invoke_write(h.writer_ids[0], 3)
            # pre-plant disagreement that the stepper will flag
            h.world.process("s000").value = 7
            h.world.process("s000").tag = h.world.process("s000").tag.next_for("x")
            h.world.process("s001").value = 8
            h.world.process("s001").tag = h.world.process("s001").tag.next_for("x")

        with pytest.raises(AssertionError, match="invariant violated"):
            check_invariants_during(handle, corrupting_drive)


class TestCheckerRegistry:
    def test_every_algorithm_has_checker(self):
        for build, kwargs in (
            (build_abd_system, dict(n=3, f=1)),
            (build_cas_system, dict(n=5, f=1)),
            (build_casgc_system, dict(n=5, f=1, gc_depth=0)),
            (build_coded_swmr_system, dict(n=5, f=1)),
        ):
            handle = build(**kwargs)
            assert callable(invariant_checker_for(handle))
