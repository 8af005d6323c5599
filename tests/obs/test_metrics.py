"""Unit tests for the process-local metrics registry and its merge law."""

import pytest

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
)


class TestPrimitives:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(4)
        assert registry.snapshot()["counters"]["requests"] == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("epsilon")
        gauge.set(1.5)
        gauge.add(0.5)
        assert registry.snapshot()["gauges"]["epsilon"] == 2.0

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", (1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        snap = registry.snapshot()["histograms"]["latency"]
        assert snap["bounds"] == [1.0, 10.0]
        assert snap["counts"] == [1, 1, 1]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(55.5)
        assert hist.mean() == pytest.approx(55.5 / 3)

    def test_histogram_bound_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", (1.0, 3.0))

    def test_same_instance_on_reuse(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h", DEFAULT_TIME_BUCKETS) is registry.histogram(
            "h", DEFAULT_TIME_BUCKETS
        )


class TestMerge:
    def _registry(self, scale):
        registry = MetricsRegistry()
        registry.counter("items").inc(10 * scale)
        registry.gauge("spend").add(0.25 * scale)
        hist = registry.histogram("seconds", (0.1, 1.0))
        hist.observe(0.05 * scale)
        hist.observe(0.5)
        return registry

    def test_merge_is_additive(self):
        parent = self._registry(1)
        parent.merge(self._registry(2).snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["items"] == 30
        assert snap["gauges"]["spend"] == pytest.approx(0.75)
        assert snap["histograms"]["seconds"]["count"] == 4

    def test_merge_snapshots_equals_sequential_merge(self):
        parts = [self._registry(k).snapshot() for k in (1, 2, 3)]
        combined = merge_snapshots(parts)
        sequential = MetricsRegistry()
        for part in parts:
            sequential.merge(part)
        assert combined == sequential.snapshot()

    def test_merge_rejects_bound_mismatch(self):
        parent = MetricsRegistry()
        parent.histogram("h", (1.0,)).observe(0.5)
        other = MetricsRegistry()
        other.histogram("h", (2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            parent.merge(other.snapshot())

    def test_snapshot_of_empty_registry(self):
        registry = MetricsRegistry()
        assert registry.is_empty()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "max_gauges": {}, "histograms": {}
        }

    def test_clear_forgets_everything(self):
        registry = self._registry(1)
        registry.clear()
        assert registry.is_empty()


class TestMaxGauge:
    def test_observe_keeps_max(self):
        registry = MetricsRegistry()
        gauge = registry.max_gauge("process.peak_rss_bytes")
        gauge.observe(100.0)
        gauge.observe(40.0)
        gauge.observe(250.0)
        assert registry.snapshot()["max_gauges"]["process.peak_rss_bytes"] == 250.0

    def test_merge_takes_max_not_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.max_gauge("peak").observe(300.0)
        b.max_gauge("peak").observe(120.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["max_gauges"]["peak"] == 300.0

    def test_merge_tolerates_legacy_snapshots(self):
        """Snapshots recorded before max_gauges existed still merge."""
        registry = MetricsRegistry()
        registry.max_gauge("peak").observe(7.0)
        legacy = {"counters": {}, "gauges": {}, "histograms": {}}
        merged = merge_snapshots([legacy, registry.snapshot()])
        assert merged["max_gauges"]["peak"] == 7.0

    def test_clear_forgets_max_gauges(self):
        registry = MetricsRegistry()
        registry.max_gauge("peak").observe(1.0)
        assert not registry.is_empty()
        registry.clear()
        assert registry.is_empty()


class TestPeakRss:
    def test_peak_rss_is_positive_bytes(self):
        from repro.obs.rss import peak_rss_bytes

        value = peak_rss_bytes()
        # A running interpreter holds well over a megabyte.
        assert value > 1 << 20
        assert peak_rss_bytes(include_children=True) >= value

    def test_record_peak_rss_lands_in_registry(self):
        from repro import obs
        from repro.obs.rss import PEAK_RSS_METRIC, record_peak_rss

        obs.enable()
        recorded = record_peak_rss()
        snapshot = obs.shutdown()
        assert snapshot["max_gauges"][PEAK_RSS_METRIC] == recorded > 0

    def test_record_is_noop_when_disabled(self):
        from repro import obs
        from repro.obs.rss import record_peak_rss

        assert not obs.enabled()
        assert record_peak_rss() > 0
        assert obs.get_registry().is_empty()


class TestDrain:
    def test_drain_reports_touched_metrics_and_resets_them(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").add(0.25)
        registry.histogram("h").observe(0.003)
        delta = registry.drain()
        assert delta["counters"] == {"c": 3}
        assert delta["gauges"] == {"g": 0.25}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == 0.003
        # Still registered, but back at their initial values.
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 0}
        assert type(snap["counters"]["c"]) is int
        assert snap["gauges"] == {"g": 0.0}
        assert snap["histograms"]["h"]["counts"] == [0] * (len(DEFAULT_TIME_BUCKETS) + 1)

    def test_untouched_metrics_and_empty_sections_are_left_out(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("b").inc()
        registry.drain()
        registry.counter("b").inc(2)
        assert registry.drain() == {"counters": {"b": 2}}
        assert registry.drain() == {}

    def test_zero_increment_still_reports_the_name(self):
        registry = MetricsRegistry()
        registry.counter("zero").inc(0)
        registry.gauge("level")
        assert registry.drain() == {"counters": {"zero": 0}, "gauges": {"level": 0.0}}

    def test_sparse_histogram_form(self):
        registry = MetricsRegistry()
        registry.histogram("default").observe(0.003)
        registry.histogram("custom", (1.0, 10.0)).observe(50.0)
        hists = registry.drain()["histograms"]
        assert hists["default"] == {"counts": {5: 1}, "sum": 0.003, "count": 1}
        assert hists["custom"] == {
            "counts": {2: 1}, "sum": 50.0, "count": 1, "bounds": [1.0, 10.0]
        }

    def test_merge_of_deltas_equals_merge_of_snapshots(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 10.0)).observe(5.0)
        registry.counter("c").inc(2)
        snap = registry.snapshot()
        via_snapshot, via_delta = MetricsRegistry(), MetricsRegistry()
        via_snapshot.merge(snap)
        via_delta.merge(registry.drain())
        assert via_delta.snapshot() == via_snapshot.snapshot()

    def test_sparse_bounds_mismatch_raises(self):
        source = MetricsRegistry()
        source.histogram("h").observe(1.0)
        target = MetricsRegistry()
        target.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            target.merge(source.drain())

    def test_clear_forgets_touched_metrics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.clear()
        assert registry.drain() == {}
