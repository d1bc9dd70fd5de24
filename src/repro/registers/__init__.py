"""Shared-memory register emulation algorithms.

Concrete client/server protocols that run on the :mod:`repro.sim`
substrate:

* :mod:`repro.registers.abd` — the ABD replication algorithm [3]
  (MWMR atomic; quorum size ``N - f``);
* :mod:`repro.registers.abd_swmr` — single-writer ABD with a 1-phase
  write, optionally without read write-back (then only regular);
* :mod:`repro.registers.cas` — Coded Atomic Storage [5], a 3-phase
  erasure-coded write protocol;
* :mod:`repro.registers.casgc` — CAS with garbage collection of old
  coded elements (bounded-concurrency liveness);
* :mod:`repro.registers.coded_swmr` — a one-phase erasure-coded
  single-writer register (regular, not atomic).

Every client runs its phases, acknowledgements and phase spans through
:class:`repro.registers.base.QuorumClient`.  All satisfy the
structural assumptions of the paper's Theorem 6.5 (black-box actions;
value-dependent messages in exactly one write phase), so every bound
in the paper applies to them.
"""

from repro.registers.tags import Tag, INITIAL_TAG
from repro.registers.base import SystemHandle, quorum_size
from repro.registers.abd import build_abd_system
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.registers.cas import build_cas_system
from repro.registers.casgc import build_casgc_system
from repro.registers.coded_swmr import build_coded_swmr_system

__all__ = [
    "Tag",
    "INITIAL_TAG",
    "SystemHandle",
    "quorum_size",
    "build_abd_system",
    "build_swmr_abd_system",
    "build_cas_system",
    "build_casgc_system",
    "build_coded_swmr_system",
]
