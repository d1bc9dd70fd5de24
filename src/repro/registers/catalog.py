"""Name-indexed register-system builders shared by every driver.

The CLI, the chaos campaign, trace capture and the triage replayer all
need to turn ``("cas", n, f, value_bits, ...)`` into a built
:class:`~repro.registers.base.SystemHandle`.  Each used to carry its
own lambda table; :func:`build_client_system` is the single canonical
resolver (the CLI's ``ALGORITHMS`` tables only fix its client
population and CASGC depth), so a ``repro.bundle/1`` artifact can name
its system by algorithm string plus a plain ``builder_params`` dict and
be rebuilt identically anywhere — worker processes included (everything
here is module-level and picklable by reference).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.registers.abd import build_abd_system
from repro.registers.abd_swmr import build_swmr_abd_system
from repro.registers.base import SystemHandle
from repro.registers.cas import build_cas_system
from repro.registers.casgc import build_casgc_system
from repro.registers.coded_swmr import build_coded_swmr_system

#: Algorithms with a configurable client population (MWMR).
MULTI_WRITER = ("abd", "cas", "casgc")

#: All buildable algorithm names, in the order the CLI lists them.
ALGORITHM_NAMES = ("abd", "swmr-abd", "cas", "casgc", "coded-swmr")

#: Client population of the CLI's single-writer experiments (its
#: ``ALGORITHMS`` table), and so of the systems ``repro explore`` bundles.
EXPERIMENT_POPULATION = {"num_writers": 1, "num_readers": 1, "gc_depth": 1}


def build_client_system(
    algorithm: str,
    n: int,
    f: int,
    value_bits: int,
    num_writers: int = 2,
    num_readers: int = 2,
    gc_depth: Optional[int] = None,
    byzantine_budget: int = 0,
) -> SystemHandle:
    """Build ``algorithm``'s system with the given client population.

    ``gc_depth`` applies to CASGC only (default 2, the campaign's
    setting).  Single-writer algorithms ignore ``num_writers``.
    ``byzantine_budget`` enables Byzantine-tolerant validation in the
    MWMR algorithms; the SWMR lower-bound systems do not support it.
    """
    if byzantine_budget and algorithm not in MULTI_WRITER:
        raise ConfigurationError(
            f"byzantine_budget is only supported for {MULTI_WRITER}; "
            f"got algorithm {algorithm!r}"
        )
    if algorithm == "abd":
        return build_abd_system(
            n=n, f=f, value_bits=value_bits,
            num_writers=num_writers, num_readers=num_readers,
            byzantine_budget=byzantine_budget,
        )
    if algorithm == "cas":
        return build_cas_system(
            n=n, f=f, value_bits=value_bits,
            num_writers=num_writers, num_readers=num_readers,
            byzantine_budget=byzantine_budget,
        )
    if algorithm == "casgc":
        return build_casgc_system(
            n=n, f=f, value_bits=value_bits,
            num_writers=num_writers, num_readers=num_readers,
            gc_depth=2 if gc_depth is None else gc_depth,
            byzantine_budget=byzantine_budget,
        )
    if algorithm == "swmr-abd":
        return build_swmr_abd_system(
            n=n, f=f, value_bits=value_bits, num_readers=num_readers,
        )
    if algorithm == "coded-swmr":
        return build_coded_swmr_system(
            n=n, f=f, value_bits=value_bits, num_readers=num_readers,
        )
    raise ConfigurationError(
        f"unknown algorithm {algorithm!r} (expected one of {ALGORITHM_NAMES})"
    )
