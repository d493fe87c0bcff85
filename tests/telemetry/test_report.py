"""Derived stats, histogram quantiles, the text report, and the
Prometheus formatter."""

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.report import derived_stats, format_text, histogram_quantile


def _snapshot():
    reg = MetricsRegistry()
    reg.incr("engine.pool.warm_hits", 3)
    reg.incr("engine.pool.cold_builds", 1)
    reg.incr("plan.frames_expanded", 61)
    reg.incr("index.hits", 8)
    reg.incr("index.misses", 2)
    reg.gauge("engine.lpt_imbalance", 1.25)
    reg.observe("plan.frame_candidates", 4)
    return reg.snapshot()


class TestDerivedStats:
    def test_ratios(self):
        derived = derived_stats(_snapshot())
        assert derived["warm_pool_hit_rate"] == 0.75
        assert derived["frames_expanded"] == 61
        assert derived["index_hit_rate"] == 0.8
        assert derived["lpt_imbalance"] == 1.25

    def test_unmeasured_is_none_not_zero(self):
        derived = derived_stats({"counters": {}, "gauges": {}, "histograms": {}})
        assert derived["warm_pool_hit_rate"] is None
        assert derived["index_hit_rate"] is None
        assert derived["lpt_imbalance"] is None

    def test_serve_figures_from_the_push_and_filter_series(self):
        reg = MetricsRegistry()
        for seconds in (0.002, 0.002, 0.002, 0.008):
            reg.observe("serve.push_seconds", seconds, (0.001, 0.004, 0.016))
        reg.incr("serve.filter.hits", 1)
        reg.incr("serve.filter.misses", 3)
        derived = derived_stats(reg.snapshot())
        # Ranks 2 and 3.96 of 4 fall in the (0.001, 0.004] and
        # (0.004, 0.016] buckets.
        assert derived["push_p50_seconds"] == pytest.approx(0.001 + 0.003 * 2 / 3)
        assert derived["push_p99_seconds"] == pytest.approx(0.004 + 0.012 * 0.96)
        assert derived["serve_filter_hit_rate"] == 0.25
        assert derived["serve_queue_depth_p99"] is None


def histogram(bounds, counts):
    return {"bounds": bounds, "counts": counts, "sum": 0.0, "count": sum(counts)}


class TestHistogramQuantile:
    """Prometheus-style estimates: linear within the crossing bucket."""

    @pytest.mark.parametrize("empty", [None, {}, histogram([1.0], [0, 0])])
    def test_missing_or_empty_is_none(self, empty):
        assert histogram_quantile(empty, 0.5) is None

    def test_first_bucket_interpolates_from_zero(self):
        assert histogram_quantile(histogram([10.0, 20.0], [4, 0, 0]), 0.5) == 5.0

    def test_inner_bucket_interpolates_between_its_bounds(self):
        h = histogram([10.0, 20.0, 40.0], [2, 2, 4, 0])
        assert histogram_quantile(h, 0.5) == 20.0
        assert histogram_quantile(h, 0.75) == 30.0
        assert histogram_quantile(h, 1.0) == 40.0

    def test_empty_buckets_are_skipped(self):
        # Rank 0 would stop at the first bucket, which holds nothing.
        h = histogram([1.0, 2.0, 4.0], [0, 0, 2, 0])
        assert histogram_quantile(h, 0.0) == 2.0
        assert histogram_quantile(h, 0.5) == 3.0

    def test_overflow_clamps_to_the_last_bound(self):
        h = histogram([1.0, 2.0], [1, 0, 3])
        assert histogram_quantile(h, 0.25) == 1.0
        assert histogram_quantile(h, 0.99) == 2.0


class TestFormatText:
    def test_headlines_and_sections(self):
        text = format_text(_snapshot())
        assert "warm-pool hit rate:      75.0%" in text
        assert "index hit rate:          80.0%" in text
        assert "LPT imbalance:           1.25" in text
        assert "== counters ==" in text
        assert "== histograms ==" in text

    def test_empty_snapshot_renders_na(self):
        text = format_text({"counters": {}, "gauges": {}, "histograms": {}})
        assert "warm-pool hit rate:      n/a" in text
        assert "(none)" in text


class TestPrometheus:
    def test_exposition_format(self):
        text = render_prometheus(_snapshot())
        assert "# TYPE repro_engine_pool_warm_hits counter" in text
        assert "repro_engine_pool_warm_hits 3" in text
        assert "repro_engine_lpt_imbalance 1.25" in text
        # cumulative buckets with an inclusive +Inf terminal
        assert 'repro_plan_frame_candidates_bucket{le="4.0"} 1' in text
        assert 'repro_plan_frame_candidates_bucket{le="+Inf"} 1' in text
        assert "repro_plan_frame_candidates_count 1" in text
        assert text.endswith("\n")

    def test_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.incr("engine.pool.invalidated.version", 4)
        text = render_prometheus(reg.snapshot())
        assert "repro_engine_pool_invalidated_version 4" in text
