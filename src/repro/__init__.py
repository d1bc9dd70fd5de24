"""repro — storage-cost lower bounds for shared memory emulation.

A complete reproduction of Cadambe, Wang & Lynch, *"Information-
Theoretic Lower Bounds on the Storage Cost of Shared Memory Emulation"*
(PODC 2016, arXiv:1605.06844): the asynchronous message-passing
substrate, the register emulation algorithms the bounds constrain
(ABD, single-writer ABD, CAS, CASGC), a from-scratch Reed-Solomon
coding stack, atomicity/regularity checkers, all of the paper's bound
formulas, and *executable* versions of the lower-bound proofs.

Quick start::

    from repro import build_abd_system, check_atomicity

    system = build_abd_system(n=5, f=2, value_bits=8)
    system.write(42)
    assert system.read().value == 42
    assert check_atomicity(system.world.operations).ok

See the ``examples/`` directory for end-to-end walkthroughs and
``benchmarks/`` for the experiments reproducing Figure 1 and the
Section 2 / Section 7 comparisons.
"""

from repro.core.bounds import (
    BoundValues,
    abd_upper_total_normalized,
    bks_integrated_total_bits,
    bks_integrated_total_normalized,
    erasure_coding_upper_total_normalized,
    evaluate_bounds,
    nu_star,
    singleton_total_bits,
    singleton_total_normalized,
    theorem41_total_bits,
    theorem41_total_normalized,
    theorem51_total_bits,
    theorem51_total_normalized,
    theorem65_total_bits,
    theorem65_total_normalized,
)
from repro.core.comparison import (
    crossover_active_writes,
    dominating_bound,
    improvement_over_singleton,
)
from repro.core.regimes import classify_storage_coefficient
from repro.coding import (
    GF2m,
    MultiVersionCode,
    ReedSolomonCode,
    ReplicationCode,
)
from repro.consistency import (
    check_atomicity,
    check_regular,
    check_weakly_regular,
    History,
)
from repro.registers import (
    build_abd_system,
    build_cas_system,
    build_casgc_system,
    build_coded_swmr_system,
    build_swmr_abd_system,
    SystemHandle,
    Tag,
)
from repro.sim import World, RoundRobinScheduler, RandomScheduler
from repro.lowerbound import (
    analyze_write_protocol,
    construct_two_write_execution,
    find_critical_pair,
    run_theorem41_experiment,
    run_theorem65_experiment,
    run_theorem_b1_experiment,
)
from repro.storage import StateSpaceAccountant, peak_storage_during
from repro.analysis import figure1_series
from repro.obs import (
    MetricsRegistry,
    MetricsReport,
    SimObserver,
    SpanTracker,
)
from repro.verification import ScheduleExplorer, explore_all_schedules
from repro.workload import run_random_workload, run_sequential_workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # bounds
    "BoundValues",
    "evaluate_bounds",
    "nu_star",
    "singleton_total_bits",
    "singleton_total_normalized",
    "theorem41_total_bits",
    "theorem41_total_normalized",
    "theorem51_total_bits",
    "theorem51_total_normalized",
    "theorem65_total_bits",
    "theorem65_total_normalized",
    "abd_upper_total_normalized",
    "bks_integrated_total_bits",
    "bks_integrated_total_normalized",
    "erasure_coding_upper_total_normalized",
    "crossover_active_writes",
    "dominating_bound",
    "improvement_over_singleton",
    "classify_storage_coefficient",
    # coding
    "GF2m",
    "ReedSolomonCode",
    "ReplicationCode",
    "MultiVersionCode",
    # consistency
    "History",
    "check_atomicity",
    "check_regular",
    "check_weakly_regular",
    # registers
    "SystemHandle",
    "Tag",
    "build_abd_system",
    "build_swmr_abd_system",
    "build_cas_system",
    "build_casgc_system",
    "build_coded_swmr_system",
    # simulation
    "World",
    "RoundRobinScheduler",
    "RandomScheduler",
    # executable proofs
    "analyze_write_protocol",
    "construct_two_write_execution",
    "find_critical_pair",
    "run_theorem_b1_experiment",
    "run_theorem41_experiment",
    "run_theorem65_experiment",
    # storage & workloads & analysis & verification
    "StateSpaceAccountant",
    "peak_storage_during",
    "run_sequential_workload",
    "run_random_workload",
    "figure1_series",
    "ScheduleExplorer",
    "explore_all_schedules",
    # observability
    "MetricsRegistry",
    "MetricsReport",
    "SimObserver",
    "SpanTracker",
]
