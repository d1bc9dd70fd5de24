"""Bounded model checking of register algorithms.

Random schedules sample the interleaving space; the explorer in
:mod:`repro.verification.explore` enumerates it *exhaustively* for
small configurations: every choice of which channel delivers next, with
states deduplicated on configuration and operation order (not on the
step counter), checking each distinct terminal state's history against
a consistency checker.  This upgrades "atomic under 15 random
seeds" to "atomic under all schedules of this configuration".
"""

from repro.verification.explore import (
    ExplorationResult,
    ScheduleExplorer,
    explore_all_schedules,
)
from repro.verification.invariants import (
    check_abd_invariants,
    check_cas_invariants,
    check_coded_invariants,
    check_invariants_during,
    invariant_checker_for,
)

__all__ = [
    "ScheduleExplorer",
    "ExplorationResult",
    "explore_all_schedules",
    "check_abd_invariants",
    "check_cas_invariants",
    "check_coded_invariants",
    "check_invariants_during",
    "invariant_checker_for",
]
