"""Unit tests for latency summaries."""

import pytest

from repro.metrics.latency import summarize_latencies


class TestSummaries:
    def test_basic_stats(self):
        stats = summarize_latencies([0.1, 0.2, 0.3, 0.4])
        assert stats.count == 4
        assert stats.mean == pytest.approx(0.25)
        assert stats.minimum == 0.1
        assert stats.maximum == 0.4
        assert stats.p50 == pytest.approx(0.25)

    def test_percentiles_ordered(self):
        stats = summarize_latencies(list(range(1, 101)))
        assert stats.minimum <= stats.p50 <= stats.p95 <= stats.maximum

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_latencies([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            summarize_latencies([0.1, -0.1])
