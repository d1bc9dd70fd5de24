"""Adversarial fault injection for the register simulators.

The paper proves its bounds against an adversary that delays messages
arbitrarily and crashes up to ``f`` servers; this package lets the
simulator *be* that adversary — and a stronger one — so the
"safety under any asynchrony, liveness within the fault budget"
contract of ABD/CAS/CASGC can be stressed empirically:

* :mod:`repro.faults.adversary` — seeded message drops, duplication,
  bounded reordering, and dynamic network partitions, installed on a
  World via ``world.adversary``;
* :mod:`repro.faults.recovery` — timed crash/recover schedules, the
  one crash mechanism (an event without a recovery tick is a permanent
  crash), with a concurrent-failures budget check;
* :mod:`repro.faults.watchdog` — liveness monitoring that converts
  silent hangs into structured diagnoses;
* :mod:`repro.faults.campaign` — the chaos campaign runner sweeping
  fault mixes across every register implementation
  (``python -m repro chaos``).
"""

from repro.faults.adversary import AdversaryConfig, ChannelAdversary, Partition
from repro.faults.campaign import (
    CampaignReport,
    ChaosRunResult,
    FaultConfig,
    FaultTimeline,
    generate_fault_configs,
    run_campaign,
    run_chaos_workload,
    write_report,
)
from repro.faults.recovery import CrashRecoverySchedule
from repro.faults.watchdog import Diagnosis, LivenessWatchdog, diagnose_stall

__all__ = [
    "AdversaryConfig",
    "ChannelAdversary",
    "Partition",
    "CrashRecoverySchedule",
    "Diagnosis",
    "LivenessWatchdog",
    "diagnose_stall",
    "FaultConfig",
    "FaultTimeline",
    "generate_fault_configs",
    "run_chaos_workload",
    "run_campaign",
    "CampaignReport",
    "ChaosRunResult",
    "write_report",
]
