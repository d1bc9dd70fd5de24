"""Zero-dependency metrics registry: counters, gauges, histograms, series.

The registry is the passive half of the observability layer: pure data
containers keyed by name, with no clock and no I/O, so recording a
metric can never perturb a simulation.  Every value is derived from the
deterministic simulator (step counts, message counts, storage bits),
which makes a registry snapshot reproducible bit-for-bit under a fixed
seed — the property the ``repro metrics`` JSON artifacts rely on.

Instruments
-----------
* :class:`Counter` — monotonically accumulating count (messages sent,
  actions executed, faults injected).
* :class:`Gauge` — last-written value plus running min/max (in-flight
  messages, current storage bits).
* :class:`Histogram` — keeps *every* observation, so quantiles are
  exact (nearest-rank), not approximations; fine at simulation scale.
* :class:`TimeSeries` — values keyed by simulation step (per-step
  storage occupancy, queue depth).

An uninstrumented run creates no registry (``World.obs`` is ``None``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Exact nearest-rank quantile ``q`` of an already-sorted sequence:
    the ``max(1, ceil(q * n))``-th smallest value; None when empty."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Counter:
    """A monotonically accumulating named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named last-value instrument with running min/max."""

    __slots__ = ("name", "value", "min_seen", "max_seen")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None
        self.min_seen: Optional[float] = None
        self.max_seen: Optional[float] = None

    def set(self, value: float) -> None:
        """Record the current value (min/max are tracked automatically)."""
        self.value = value
        if self.min_seen is None or value < self.min_seen:
            self.min_seen = value
        if self.max_seen is None or value > self.max_seen:
            self.max_seen = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A named distribution keeping every observation (exact quantiles)."""

    __slots__ = ("name", "observations")

    def __init__(self, name: str) -> None:
        self.name = name
        self.observations: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observations.append(value)

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self.observations)

    @property
    def total(self) -> float:
        """Sum of observations."""
        return sum(self.observations)

    def mean(self) -> Optional[float]:
        """Arithmetic mean, or None when empty."""
        return self.total / self.count if self.observations else None

    def min(self) -> Optional[float]:
        """Smallest observation, or None when empty."""
        return min(self.observations) if self.observations else None

    def max(self) -> Optional[float]:
        """Largest observation, or None when empty."""
        return max(self.observations) if self.observations else None

    def quantile(self, q: float) -> Optional[float]:
        """Exact nearest-rank quantile ``q`` in [0, 1]; None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return percentile(sorted(self.observations), q)

    def summary(self) -> Dict[str, Optional[float]]:
        """count/mean/min/max plus the standard quantiles, JSON-ready."""
        ordered = sorted(self.observations)
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean(),
            "min": self.min(),
            "max": self.max(),
            "p50": percentile(ordered, 0.50),
            "p90": percentile(ordered, 0.90),
            "p99": percentile(ordered, 0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class TimeSeries:
    """A named sequence of ``(step, value)`` samples.

    Recording twice at the same step overwrites the earlier sample (the
    instrumentation samples once per action, so the last write at a
    step is the state *at* that point in the paper's sense).
    """

    __slots__ = ("name", "_steps", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._steps: List[int] = []
        self._values: List[float] = []

    def record(self, step: int, value: float) -> None:
        """Sample ``value`` at simulation step ``step``."""
        if self._steps and self._steps[-1] == step:
            self._values[-1] = value
        else:
            self._steps.append(step)
            self._values.append(value)

    def points(self) -> List[Tuple[int, float]]:
        """All samples as ``(step, value)`` pairs."""
        return list(zip(self._steps, self._values))

    def steps(self) -> List[int]:
        """The sampled steps."""
        return list(self._steps)

    def values(self) -> List[float]:
        """The sampled values."""
        return list(self._values)

    def max_value(self) -> Optional[float]:
        """Largest sampled value, or None when empty."""
        return max(self._values) if self._values else None

    def __len__(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:
        return f"TimeSeries({self.name}, n={len(self)})"


class MetricsRegistry:
    """Named instruments, created on first use.

    Counters, gauges, histograms and time series live in separate
    namespaces (the same name may exist in more than one kind, though
    the built-in instrumentation never does that).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}

    # -- get-or-create accessors --------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter ``name``, created at 0 on first use."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge ``name``, created unset on first use."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram ``name``, created empty on first use."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def timeseries(self, name: str) -> TimeSeries:
        """The time series ``name``, created empty on first use."""
        instrument = self.series.get(name)
        if instrument is None:
            instrument = self.series[name] = TimeSeries(name)
        return instrument

    def inc(self, name: str, amount: int = 1) -> None:
        """Shortcut: increment the counter ``name``."""
        self.counter(name).inc(amount)

    # -- combination ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place) and return self.

        Semantics per kind: counters **add**; histograms **concatenate**
        observations; gauges take ``other``'s last value (min/max are
        combined); time series concatenate and re-sort by step, with
        ``other`` winning ties.
        """
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            mine = self.gauge(name)
            for bound in (gauge.min_seen, gauge.max_seen):
                if bound is not None:
                    mine.set(bound)
            if gauge.value is not None:
                mine.set(gauge.value)
        for name, histogram in other.histograms.items():
            self.histogram(name).observations.extend(histogram.observations)
        for name, series in other.series.items():
            mine = self.timeseries(name)
            combined: Dict[int, float] = dict(mine.points())
            combined.update(series.points())
            mine._steps = sorted(combined)
            mine._values = [combined[s] for s in mine._steps]
        return self

    # -- export --------------------------------------------------------------

    def counter_values(self) -> Dict[str, int]:
        """Every counter's value, names sorted (the snapshot's counters)."""
        return {name: self.counters[name].value for name in sorted(self.counters)}

    def snapshot(self) -> dict:
        """JSON-ready view of every instrument, names sorted."""
        return {
            "counters": self.counter_values(),
            "gauges": {
                name: {
                    "value": g.value,
                    "min": g.min_seen,
                    "max": g.max_seen,
                }
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self.histograms.items())
            },
            "series": {
                name: {"steps": s.steps(), "values": s.values()}
                for name, s in sorted(self.series.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(self.histograms)} histograms, "
            f"{len(self.series)} series)"
        )
