"""Tests for latency histograms, throughput tracking and report rendering."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.metrics.histogram import LatencyHistogram, nearest_rank
from repro.metrics.report import format_table
from repro.metrics.throughput import ThroughputTracker


class TestLatencyHistogram:
    def test_mean_min_max(self):
        histogram = LatencyHistogram([10.0, 20.0, 30.0])
        assert histogram.mean() == 20.0
        assert histogram.minimum() == 10.0
        assert histogram.maximum() == 30.0

    def test_percentiles_nearest_rank(self):
        histogram = LatencyHistogram(float(value) for value in range(1, 101))
        assert histogram.percentile(50.0) == 50.0
        assert histogram.percentile(95.0) == 95.0
        assert histogram.percentile(99.0) == 99.0
        assert histogram.percentile(100.0) == 100.0

    def test_percentile_of_small_sample(self):
        histogram = LatencyHistogram([5.0])
        assert histogram.percentile(99.99) == 5.0

    def test_empty_histogram_reports_zeros(self):
        histogram = LatencyHistogram()
        assert histogram.mean() == 0.0
        assert histogram.percentile(99.0) == 0.0
        assert histogram.is_empty()

    def test_merge(self):
        left = LatencyHistogram([1.0, 2.0])
        right = LatencyHistogram([3.0])
        left.merge(right)
        assert len(left) == 3
        assert left.maximum() == 3.0

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)

    def test_invalid_percentile_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram([1.0]).percentile(0.0)

    def test_summary_keys(self):
        summary = LatencyHistogram([1.0, 2.0, 3.0]).summary()
        assert set(summary) == {
            "count", "mean", "p50", "p95", "p99", "p99.9", "p99.99", "max",
        }

    def test_figure6_percentiles_batch(self):
        histogram = LatencyHistogram(float(value) for value in range(1, 1001))
        assert histogram.percentile(95.0) == 950.0
        assert histogram.percentile(99.9) == 999.0

    def test_nearest_rank_is_immune_to_float_error(self):
        # 99.9 / 100 * 1000 evaluates to 999.0000000000001; a plain ceil
        # would round the rank up to 1000.
        assert nearest_rank(99.9, 1000) == 999
        assert nearest_rank(95.0, 1000) == 950
        assert nearest_rank(99.99, 1000) == 1000
        assert nearest_rank(100.0, 7) == 7
        assert nearest_rank(0.01, 1) == 1
        # Non-integral exact ranks still round up.
        assert nearest_rank(50.0, 3) == 2

    def test_streaming_aggregates_match_samples_without_sorting(self):
        histogram = LatencyHistogram()
        for value in (5.0, 1.0, 9.0, 3.0):
            histogram.record(value)
        # Min/max/mean are maintained incrementally: the sample list is
        # untouched (still unsorted) until a percentile query needs it.
        assert histogram.minimum() == 1.0
        assert histogram.maximum() == 9.0
        assert histogram.mean() == 4.5
        assert histogram._samples == [5.0, 1.0, 9.0, 3.0]
        assert histogram.percentile(100.0) == 9.0

    def test_merge_keeps_streaming_aggregates(self):
        left = LatencyHistogram([2.0, 8.0])
        right = LatencyHistogram([1.0, 16.0])
        left.merge(right)
        assert left.minimum() == 1.0
        assert left.maximum() == 16.0
        assert left.mean() == 6.75
        left.merge(LatencyHistogram())
        assert left.minimum() == 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1e5), min_size=1, max_size=300))
    def test_percentiles_are_monotone_and_bounded(self, samples):
        histogram = LatencyHistogram(samples)
        p50 = histogram.percentile(50.0)
        p95 = histogram.percentile(95.0)
        p999 = histogram.percentile(99.9)
        assert p50 <= p95 <= p999 <= histogram.maximum()
        assert histogram.minimum() <= p50


class TestThroughputTracker:
    def test_ops_per_second(self):
        tracker = ThroughputTracker()
        for index in range(11):
            tracker.record(float(index * 100))
        assert tracker.completed == 11
        assert tracker.ops_per_second() == pytest.approx(10.0 / 1.0)

    def test_warmup_excludes_early_samples(self):
        tracker = ThroughputTracker(warmup_ms=500.0)
        tracker.record(100.0)
        tracker.record(600.0)
        tracker.record(700.0)
        assert tracker.completed == 2
        assert tracker.ignored == 1

    def test_per_site_counts(self):
        tracker = ThroughputTracker()
        tracker.record(10.0, "ireland")
        tracker.record(20.0, "ireland")
        tracker.record(30.0, "canada")
        assert tracker.per_site == {"ireland": 2, "canada": 1}
        per_site = tracker.ops_per_second_per_site()
        assert per_site["ireland"] == pytest.approx(2 / 0.02)

    def test_too_few_samples_give_zero_rate(self):
        tracker = ThroughputTracker()
        tracker.record(5.0)
        assert tracker.ops_per_second() == 0.0


class TestReport:
    def test_format_table_aligns_columns(self):
        rows = [
            {"protocol": "tempo", "mean": 1.0},
            {"protocol": "fpaxos-with-a-long-name", "mean": 123456.0},
        ]
        table = format_table(rows, title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "protocol" in lines[1]
        assert len(lines) == 5
        # All data lines are equally wide.
        assert len(lines[3]) == len(lines[4])

    def test_format_table_with_explicit_columns(self):
        rows = [{"a": 1, "b": 2}]
        table = format_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")
