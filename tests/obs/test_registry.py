"""Registry semantics: instrument edge cases and merge."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_registry_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        reg.inc("a", 3)
        assert reg.counter("a").value == 3


class TestGauge:
    def test_tracks_last_min_max(self):
        g = Gauge("q")
        assert g.value is None and g.min_seen is None and g.max_seen is None
        g.set(5)
        g.set(2)
        g.set(9)
        assert (g.value, g.min_seen, g.max_seen) == (9, 2, 9)

    def test_negative_and_zero_values(self):
        g = Gauge("q")
        g.set(0)
        g.set(-3)
        assert (g.value, g.min_seen, g.max_seen) == (-3, -3, 0)


class TestHistogram:
    def test_empty_histogram_is_all_none(self):
        h = Histogram("lat")
        assert h.count == 0
        assert h.mean() is None
        assert h.min() is None
        assert h.max() is None
        assert h.quantile(0.5) is None
        assert h.summary()["p99"] is None

    def test_single_observation(self):
        h = Histogram("lat")
        h.observe(7)
        assert h.mean() == 7
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 7

    def test_exact_nearest_rank_quantiles(self):
        h = Histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        assert h.quantile(0.5) == 50
        assert h.quantile(0.9) == 90
        assert h.quantile(0.99) == 99
        assert h.quantile(1.0) == 100
        assert h.quantile(0.0) == 1  # rank clamps to 1

    def test_quantile_out_of_range_raises(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_summary_shape(self):
        h = Histogram("lat")
        h.observe(1)
        h.observe(3)
        s = h.summary()
        assert s["count"] == 2
        assert s["total"] == 4
        assert s["mean"] == 2
        assert s["min"] == 1 and s["max"] == 3


class TestTimeSeries:
    def test_same_step_overwrites(self):
        ts = TimeSeries("storage")
        ts.record(3, 10)
        ts.record(3, 12)
        ts.record(5, 11)
        assert ts.points() == [(3, 12), (5, 11)]
        assert ts.max_value() == 12

    def test_empty_series(self):
        ts = TimeSeries("storage")
        assert ts.max_value() is None
        assert len(ts) == 0


class TestMerge:
    def test_counters_add_histograms_concat_series_sorted(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("msgs", 2)
        b.inc("msgs", 3)
        b.inc("only-b")
        a.histogram("lat").observe(1)
        b.histogram("lat").observe(9)
        a.timeseries("s").record(1, 10)
        a.timeseries("s").record(4, 40)
        b.timeseries("s").record(2, 20)
        b.timeseries("s").record(4, 44)  # tie: other wins
        a.gauge("g").set(5)
        b.gauge("g").set(1)

        merged = a.merge(b)
        assert merged is a
        assert a.counter("msgs").value == 5
        assert a.counter("only-b").value == 1
        assert sorted(a.histogram("lat").observations) == [1, 9]
        assert a.timeseries("s").points() == [(1, 10), (2, 20), (4, 44)]
        assert a.gauge("g").value == 1
        assert a.gauge("g").min_seen == 1
        assert a.gauge("g").max_seen == 5

    def test_snapshot_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert set(snap) == {"counters", "gauges", "histograms", "series"}

