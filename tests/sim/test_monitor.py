"""Tests for metrics primitives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.monitor import Counter, Gauge, Histogram, Monitor, TimeSeries


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("x")
        g.set(3.0)
        g.add(-1.0)
        assert g.value == 2.0


class TestHistogram:
    def test_empty_stats_are_nan(self):
        h = Histogram("lat")
        assert math.isnan(h.mean())
        assert math.isnan(h.percentile(50))

    def test_mean(self):
        h = Histogram("lat")
        h.extend([1.0, 2.0, 3.0])
        assert h.mean() == pytest.approx(2.0)

    def test_mean_is_the_exactly_rounded_sum(self):
        """Builtin ``sum`` rounds per addition before CPython 3.12 and
        compensates from 3.12 on; ``fsum`` is exact on both, which is
        what keeps metric dumps identical across interpreters."""
        xs = [1e16, 1.0, -1e16]
        h = Histogram("lat")
        h.extend(xs)
        assert h.mean() == math.fsum(xs) / 3 == 1 / 3

    def test_percentiles_exact(self):
        h = Histogram("lat")
        h.extend(float(i) for i in range(1, 101))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)

    def test_percentile_bounds_checked(self):
        h = Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_single_sample(self):
        h = Histogram("lat")
        h.observe(7.0)
        assert h.percentile(95) == 7.0

    def test_observe_after_percentile_invalidate_cache(self):
        h = Histogram("lat")
        h.observe(1.0)
        assert h.percentile(50) == 1.0
        h.observe(100.0)
        assert h.percentile(100) == 100.0

    def test_cdf_monotone_and_complete(self):
        h = Histogram("lat")
        h.extend([0.1, 0.2, 0.2, 0.5, 1.0])
        cdf = h.cdf(points=10)
        fracs = [f for _, f in cdf]
        assert fracs == sorted(fracs)
        assert cdf[-1][1] == pytest.approx(1.0)

    def test_cdf_of_constant_data(self):
        h = Histogram("lat")
        h.extend([2.0, 2.0])
        assert h.cdf() == [(2.0, 1.0)]

    def test_summary_keys(self):
        h = Histogram("lat")
        h.extend([1.0, 2.0])
        assert set(h.summary()) == {"count", "mean", "p50", "p95", "p99"}

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_percentiles_within_data_range(self, data):
        h = Histogram("lat")
        h.extend(data)
        for p in (0, 25, 50, 75, 95, 100):
            assert min(data) <= h.percentile(p) <= max(data)


class TestTimeSeries:
    def test_bucketing(self):
        s = TimeSeries("tput", width=1.0)
        s.record(0.1)
        s.record(0.9)
        s.record(1.5)
        assert s.buckets() == [(0.0, 2.0), (1.0, 1.0)]

    def test_gaps_filled_with_zero(self):
        s = TimeSeries("tput")
        s.record(0.5)
        s.record(3.5)
        assert s.buckets() == [(0.0, 1.0), (1.0, 0.0), (2.0, 0.0), (3.0, 1.0)]

    def test_rates_divide_by_width(self):
        s = TimeSeries("tput", width=2.0)
        s.record(0.0, 10.0)
        assert s.rates() == [(0.0, 5.0)]

    def test_total_and_value_at(self):
        s = TimeSeries("tput")
        s.record(1.2, 3.0)
        s.record(1.8, 2.0)
        assert s.total() == 5.0
        assert s.value_at(1.5) == 5.0
        assert s.value_at(10.0) == 0.0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            TimeSeries("x", width=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries("x").record(-1.0)

    def test_empty_series(self):
        assert TimeSeries("x").buckets() == []


class TestMonitor:
    def test_same_name_returns_same_object(self):
        m = Monitor()
        assert m.counter("a") is m.counter("a")
        assert m.histogram("h") is m.histogram("h")
        assert m.series("s") is m.series("s")
        assert m.gauge("g") is m.gauge("g")

    def test_snapshot_shape(self):
        m = Monitor()
        m.counter("cmds").inc(3)
        m.histogram("lat").observe(0.5)
        m.series("tput").record(0.0)
        m.gauge("load").set(1.5)
        snap = m.snapshot()
        assert snap["counters"]["cmds"] == 3
        assert snap["gauges"]["load"] == 1.5
        assert snap["histograms"]["lat"]["count"] == 1.0
        assert snap["series"]["tput"] == [(0.0, 1.0)]

    def test_counters_dict(self):
        m = Monitor()
        m.counter("a").inc()
        assert m.counters() == {"a": 1}


class TestHistogramObserveMany:
    def test_observe_many_is_an_alias_of_extend(self):
        assert Histogram.observe_many is Histogram.extend
        h = Histogram("lat")
        h.observe_many([1.0, 2.0, 3.0])
        assert h.count == 3 and h.mean() == pytest.approx(2.0)


class TestTimeSeriesMerge:
    def test_merge_from_adds_bucket_totals(self):
        a = TimeSeries("tput")
        b = TimeSeries("tput")
        a.record(0.5, 2.0)
        b.record(0.5, 3.0)
        b.record(2.5, 1.0)
        a.merge_from(b)
        assert a.buckets() == [(0.0, 5.0), (1.0, 0.0), (2.0, 1.0)]

    def test_merge_from_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="widths"):
            TimeSeries("x", width=1.0).merge_from(TimeSeries("x", width=2.0))


class TestLabeledMetrics:
    def test_label_combinations_are_distinct_metrics(self):
        m = Monitor()
        m.counter("fault", kind="cut").inc(2)
        m.counter("fault", kind="crash").inc()
        m.counter("fault").inc(9)  # unlabeled sibling stays separate
        assert m.counter("fault", kind="cut").value == 2
        assert m.labeled_counters("fault") == {"cut": 2, "crash": 1}

    def test_label_order_does_not_matter(self):
        m = Monitor()
        m.counter("x", a=1, b=2).inc()
        assert m.counter("b", a=1) is not m.counter("b", a=2)
        assert m.counter("x", b=2, a=1).value == 1

    def test_multi_label_key_is_sorted_value_tuple(self):
        m = Monitor()
        m.counter("rpc", method="get", code=200).inc(3)
        # keys sorted alphabetically: code, method
        assert m.labeled_counters("rpc") == {(200, "get"): 3}

    def test_labeled_series(self):
        m = Monitor()
        m.series("tput", partition="p0").record(0.1, 5.0)
        m.series("tput", partition="p1").record(0.1, 7.0)
        by_part = m.labeled_series("tput")
        assert set(by_part) == {"p0", "p1"}
        assert by_part["p0"].total() == 5.0

    def test_counters_with_prefix_shim_is_gone(self):
        # Deprecated in the observability PR, removed in the recovery PR:
        # all callers read labeled metrics via labeled_counters now.
        assert not hasattr(Monitor, "counters_with_prefix")


class TestMonitorMerge:
    def test_merge_folds_all_metric_kinds(self):
        a, b = Monitor(), Monitor()
        a.counter("cmds").inc(2)
        b.counter("cmds").inc(3)
        b.counter("fault", kind="cut").inc()
        a.gauge("load").set(1.0)
        b.gauge("load").set(0.5)
        a.histogram("lat").observe(1.0)
        b.histogram("lat").extend([2.0, 3.0])
        b.series("tput", partition="p0").record(0.1, 4.0)
        assert a.merge(b) is a
        assert a.counter("cmds").value == 5
        assert a.labeled_counters("fault") == {"cut": 1}
        assert a.gauge("load").value == pytest.approx(1.5)
        assert a.histogram("lat").count == 3
        assert a.series("tput", partition="p0").total() == 4.0

    def test_merge_preserves_label_identity(self):
        a, b = Monitor(), Monitor()
        a.counter("fault", kind="cut").inc()
        b.counter("fault", kind="crash").inc()
        a.merge(b)
        assert a.labeled_counters("fault") == {"cut": 1, "crash": 1}
