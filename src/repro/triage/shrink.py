"""Delta-debugging shrinker for chaos repro bundles.

Given a bundle whose replay reproduces its failure, :func:`shrink_bundle`
searches for a *smaller* bundle with the **same failure signature**
(``("unsafe",)`` or ``("stall", <diagnosis verdict>)`` — never trading
one failure class for another).  The candidate space is the bundle's
removable structure:

* each crash/recover event of the fault timeline,
* the partition cut (and, independently, its heal),
* each workload operation,
* and, in a final pass, each nonzero message-fault probability
  (drop/duplicate/reorder budgets zeroed one at a time).

The core loop is ddmin (Zeller & Hildebrandt): partition the surviving
items into ``n`` chunks, test each chunk and each complement as the new
kept set, double granularity when nothing reproduces.  One deliberate
deviation from the classic sequential formulation: **every candidate of
a round is evaluated** — fanned through the :mod:`repro.parallel` pool
and the :class:`~repro.parallel.cache.RunCache` — and the *first*
(lowest-index) reproducing candidate is taken.  Early-exit on the first
success would make the number of evaluated candidates depend on
completion order; evaluating the full round makes the shrink result a
pure function of the bundle, byte-identical at any ``--jobs`` count
(the determinism guard in ``tests/triage/test_shrink_parallel.py``).

Progress is reported on the :class:`ShrinkResult`: rounds, candidates,
acceptances and cache hits, plus a round-by-round log.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.campaign import campaign_task_key
from repro.parallel.cache import RunCache
from repro.parallel.pool import run_tasks
from repro.triage.bundle import ReproBundle
from repro.triage.replay import (
    _replay_task,
    outcome_signature,
    replay_task_payload,
)

#: Shrink item tags: ("crash", i) | ("partition",) | ("heal",) | ("op", i)
Item = Tuple


def _bundle_items(bundle: ReproBundle) -> List[Item]:
    """Every removable element, in a stable canonical order."""
    items: List[Item] = []
    timeline = bundle.timeline
    if timeline is not None:
        items.extend(("crash", i) for i in range(len(timeline.crash_events)))
        if timeline.partition_at is not None:
            items.append(("partition",))
        if timeline.heal_at is not None:
            items.append(("heal",))
    items.extend(("op", i) for i in range(len(bundle.workload)))
    return items


def _candidate(bundle: ReproBundle, kept: Sequence[Item]) -> ReproBundle:
    """The bundle keeping exactly ``kept`` of its removable items."""
    kept_set = set(kept)
    timeline = bundle.timeline
    if timeline is not None:
        keep_partition = ("partition",) in kept_set
        timeline = dc_replace(
            timeline,
            crash_events=tuple(
                e
                for i, e in enumerate(timeline.crash_events)
                if ("crash", i) in kept_set
            ),
            partition_at=timeline.partition_at if keep_partition else None,
            partition_pids=timeline.partition_pids if keep_partition else (),
            # A heal without its partition is meaningless; drop it too.
            heal_at=(
                timeline.heal_at
                if keep_partition and ("heal",) in kept_set
                else None
            ),
        )
    workload = bundle.workload.keep(
        i for i in range(len(bundle.workload)) if ("op", i) in kept_set
    )
    return bundle.with_timeline(timeline).with_workload(workload)


@dataclass
class ShrinkResult:
    """The minimized bundle plus the search's own telemetry."""

    original: ReproBundle
    minimized: ReproBundle
    signature: Tuple[str, ...]
    rounds: int = 0
    candidates: int = 0
    accepted: int = 0
    cache_hits: int = 0
    log: List[str] = field(default_factory=list)

    @property
    def original_events(self) -> int:
        return self.original.event_count()

    @property
    def minimized_events(self) -> int:
        return self.minimized.event_count()

    @property
    def original_ops(self) -> int:
        return len(self.original.workload)

    @property
    def minimized_ops(self) -> int:
        return len(self.minimized.workload)

    def format(self) -> str:
        head = (
            f"shrunk {self.original_events} timeline events -> "
            f"{self.minimized_events}, {self.original_ops} ops -> "
            f"{self.minimized_ops} "
            f"({self.rounds} rounds, {self.candidates} candidates, "
            f"{self.accepted} accepted, {self.cache_hits} cache hits)"
        )
        return "\n".join([head, *self.log])


class _Shrinker:
    """One shrink run's state: evaluation plumbing + progress counts."""

    def __init__(
        self,
        bundle: ReproBundle,
        jobs: Optional[int],
        cache: Optional[RunCache],
        chunk: Optional[int] = None,
    ) -> None:
        self.bundle = bundle
        self.target = bundle.expected.signature()
        self.jobs = jobs
        self.chunk = chunk
        self.cache = cache
        self.result = ShrinkResult(
            original=bundle, minimized=bundle, signature=self.target
        )

    def _evaluate(self, candidates: List[ReproBundle]) -> int:
        """Index of the first candidate reproducing the failure, or -1.

        All candidates run (cache-first, then one pool fan-out), so the
        answer is independent of jobs count and completion order.
        """
        payloads = [replay_task_payload(c) for c in candidates]
        keys = [campaign_task_key(p) for p in payloads]
        results: List[Optional[dict]] = [None] * len(payloads)
        if self.cache is not None:
            for i, key in enumerate(keys):
                results[i] = self.cache.get(key)
                if results[i] is not None:
                    self.result.cache_hits += 1
        pending = [i for i in range(len(payloads)) if results[i] is None]
        fresh = run_tasks(
            _replay_task,
            [payloads[i] for i in pending],
            jobs=self.jobs,
            chunk=self.chunk,
        )
        for i, data in zip(pending, fresh):
            results[i] = data
            if self.cache is not None:
                self.cache.put(keys[i], data)
        self.result.candidates += len(candidates)
        for i, data in enumerate(results):
            if outcome_signature(data) == self.target:
                return i
        return -1

    def ddmin(self, items: List[Item]) -> List[Item]:
        """Minimal kept-item set still reproducing the signature."""
        current = list(items)
        granularity = 2
        while len(current) >= 1:
            self.result.rounds += 1
            size = len(current)
            bounds = [
                (size * k // granularity, size * (k + 1) // granularity)
                for k in range(granularity)
            ]
            # A chunk spanning everything is not a reduction (size 1 at
            # granularity 2 degenerates to this); only strict subsets
            # are candidates.
            chunks = [
                current[lo:hi] for lo, hi in bounds if lo < hi and hi - lo < size
            ]
            kept_sets: List[List[Item]] = list(chunks)
            if granularity > 2:
                kept_sets.extend(
                    current[:lo] + current[hi:]
                    for lo, hi in bounds
                    if lo < hi
                )
            hit = self._evaluate([
                _candidate(self.bundle, kept) for kept in kept_sets
            ])
            if hit >= 0:
                kept = kept_sets[hit]
                self.result.accepted += 1
                self.result.log.append(
                    f"round {self.result.rounds}: kept {len(kept)}/{size} "
                    "items, failure preserved"
                )
                reduced_to_chunk = hit < len(chunks)
                current = kept
                granularity = 2 if reduced_to_chunk else max(granularity - 1, 2)
                continue
            if granularity >= size:
                self.result.log.append(
                    f"round {self.result.rounds}: no smaller candidate "
                    f"reproduces; {size} items are 1-minimal"
                )
                break
            granularity = min(granularity * 2, size)
        return current

    def zero_budgets(self, shrunk: ReproBundle) -> ReproBundle:
        """Final pass: zero each message-fault probability that the
        failure turns out not to need."""
        config = shrunk.fault_config
        if config is None:
            return shrunk
        for fld in (
            "drop_probability",
            "duplicate_probability",
            "reorder_probability",
        ):
            if getattr(config, fld) == 0.0:
                continue
            candidate = shrunk.with_fault_config(
                dc_replace(config, **{fld: 0.0})
            )
            if self._evaluate([candidate]) == 0:
                self.result.accepted += 1
                self.result.log.append(f"zeroed {fld}, failure preserved")
                shrunk = candidate
                config = shrunk.fault_config
        return shrunk


def shrink_bundle(
    bundle: ReproBundle,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    chunk: Optional[int] = None,
) -> ShrinkResult:
    """Minimize ``bundle`` while preserving its exact failure signature.

    Raises :class:`~repro.errors.ConfigurationError` if the bundle is
    not a chaos bundle or does not reproduce its recorded failure under
    the current code (shrinking a non-reproducing bundle would minimize
    noise).
    """
    if bundle.kind != "chaos":
        raise ConfigurationError(
            "only chaos bundles are shrinkable; an exploration "
            "counterexample's delivery schedule is already its essence"
        )
    shrinker = _Shrinker(bundle, jobs, cache, chunk=chunk)
    if shrinker._evaluate([bundle]) != 0:
        raise ConfigurationError(
            "bundle does not reproduce its recorded failure signature "
            f"{'/'.join(bundle.expected.signature())}; refusing to shrink "
            "a non-reproducing artifact (check fingerprint drift)"
        )
    shrinker.result.log.append(
        f"baseline reproduces {'/'.join(shrinker.target)} "
        f"({bundle.event_count()} timeline events, "
        f"{len(bundle.workload)} ops)"
    )
    kept = shrinker.ddmin(_bundle_items(bundle))
    minimized = _candidate(bundle, kept)
    minimized = shrinker.zero_budgets(minimized)
    note = (
        f"shrunk: {bundle.event_count()}->{minimized.event_count()} "
        f"timeline events, {len(bundle.workload)}->{len(minimized.workload)} ops"
    )
    minimized = minimized.with_note(
        f"{bundle.note}; {note}" if bundle.note else note
    )
    shrinker.result.minimized = minimized
    shrinker.result.log.append(note)
    return shrinker.result


def write_shrink_log(result: ShrinkResult, path: str) -> None:
    """Persist the human-readable shrink narrative next to the bundle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(result.format() + "\n")
