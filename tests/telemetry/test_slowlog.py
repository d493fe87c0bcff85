"""Slow-plan capture: threshold gating, ring bound, trace linkage."""

import pytest

from repro import paper
from repro.engine import shutdown_pools
from repro.graph import GraphBuilder
from repro.telemetry import metrics, slowlog, spans, trace


@pytest.fixture(autouse=True)
def _clean_slowlog():
    metrics.disable()
    metrics.reset()
    spans.clear_spans()
    slowlog.clear_slow_plans()
    slowlog.set_slow_plan_threshold(None)
    slowlog.set_slow_plan_capacity(slowlog.DEFAULT_SLOW_PLAN_CAPACITY)
    yield
    metrics.disable()
    metrics.reset()
    spans.clear_spans()
    slowlog.clear_slow_plans()
    slowlog.set_slow_plan_threshold(None)
    slowlog.set_slow_plan_capacity(slowlog.DEFAULT_SLOW_PLAN_CAPACITY)


class TestThreshold:
    def test_off_by_default(self):
        assert slowlog.slow_plan_threshold() is None

    def test_set_and_clear(self):
        slowlog.set_slow_plan_threshold(0.25)
        assert slowlog.slow_plan_threshold() == 0.25
        slowlog.set_slow_plan_threshold(None)
        assert slowlog.slow_plan_threshold() is None

    def test_env_parse_ms_to_seconds(self):
        # millis convert to seconds; junk and negatives read as "off" —
        # a bad env var must never break startup.
        import os

        for raw, expected in (("250", 0.25), ("0", 0.0)):
            os.environ[slowlog.ENV_SLOW_PLAN_MS] = raw
            try:
                assert slowlog._threshold_from_env() == expected
            finally:
                del os.environ[slowlog.ENV_SLOW_PLAN_MS]
        for junk in ("abc", "-5"):
            os.environ[slowlog.ENV_SLOW_PLAN_MS] = junk
            try:
                assert slowlog._threshold_from_env() is None
            finally:
                del os.environ[slowlog.ENV_SLOW_PLAN_MS]


class TestRingBuffer:
    def test_overflow_drops_oldest_and_counts_never_raises(self):
        metrics.enable()
        slowlog.set_slow_plan_capacity(2)
        for index in range(5):
            slowlog.record_slow_plan(f"plan-{index}", 0.01, "explain text")
        records = slowlog.drain_slow_plans()
        # newest two survive — the slow plan being debugged is the
        # latest one, not the first
        assert [r["name"] for r in records] == ["plan-3", "plan-4"]
        counters = metrics.snapshot()["counters"]
        assert counters["telemetry.slow_plans_dropped"] == 3

    def test_shrinking_capacity_trims_oldest(self):
        metrics.enable()
        for index in range(4):
            slowlog.record_slow_plan(f"plan-{index}", 0.01, "x")
        slowlog.set_slow_plan_capacity(2)
        assert [r["name"] for r in slowlog.drain_slow_plans()] == [
            "plan-2",
            "plan-3",
        ]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            slowlog.set_slow_plan_capacity(0)

    def test_absorb_is_bounded_too(self):
        metrics.enable()
        slowlog.set_slow_plan_capacity(2)
        slowlog.absorb_slow_plans(
            [{"type": "slow_plan", "name": f"w-{i}"} for i in range(4)]
        )
        assert len(slowlog.drain_slow_plans()) == 2
        assert metrics.snapshot()["counters"]["telemetry.slow_plans_dropped"] == 2


class TestTraceLinkage:
    def test_record_carries_active_trace_refs(self):
        metrics.enable()
        with trace.tracing(trace.TraceContext("t1")):
            with spans.span("stream.shard") as shard:
                slowlog.record_slow_plan("ged", 0.02, "explain", pivot="x")
        (record,) = slowlog.drain_slow_plans()
        assert record["trace_id"] == "t1"
        assert record["parent_ref"] == trace.make_ref(shard.span_id)
        assert record["attrs"] == {"pivot": "x"}
        assert record["explain"] == "explain"


class TestValidationHook:
    def _dirty_graph(self):
        return (
            GraphBuilder()
            .node("fin", "country")
            .node("hel", "city", name="Helsinki")
            .node("spb", "city", name="Saint Petersburg")
            .edge("fin", "capital", "hel")
            .edge("fin", "capital", "spb")
            .build()
        )

    def test_zero_threshold_captures_observed_explain_per_shard(self):
        from repro.parallel import parallel_find_violations

        metrics.enable()
        slowlog.set_slow_plan_threshold(0.0)
        # The engine's workers run the shards and ship their records
        # home on the telemetry snapshot.
        report = parallel_find_violations(
            self._dirty_graph(), [paper.phi2()], workers=2, backend="engine"
        )
        shutdown_pools()
        assert report.violations  # the fixture is dirty
        records = slowlog.drain_slow_plans()
        assert records, "threshold 0 must capture every shard"
        sample = records[0]
        assert sample["name"] == paper.phi2().name or sample["name"] == "GED"
        assert "match plan" in sample["explain"]
        assert "obs." in sample["explain"]  # observed=True annotations
        assert "shard_nodes" in sample["attrs"]

    def test_disabled_telemetry_captures_nothing(self):
        from repro.parallel import parallel_find_violations

        slowlog.set_slow_plan_threshold(0.0)
        parallel_find_violations(
            self._dirty_graph(), [paper.phi2()], workers=2, backend="engine"
        )
        shutdown_pools()
        assert slowlog.drain_slow_plans() == []

    def test_record_describes_its_own_shard(self):
        """Each record renders the program its shard executed — the
        pivot's shard-restricted pool scanned first — with that run's
        own frame totals, not totals summed across shards or runs."""
        from repro.parallel.partition import plan_shards
        from repro.parallel.validate import run_shard
        from repro.workloads import bounded_rule_set, validation_workload

        graph = validation_workload(400, rng=13)
        (ged,) = [r for r in bounded_rule_set() if r.name == "same-region-for-top-items"]
        plan = plan_shards(ged.pattern, graph, 2)
        assert plan.pivot == "i" and plan.num_shards == 2
        metrics.enable()
        slowlog.set_slow_plan_threshold(0.0)
        for index in (0, 1, 0):
            run_shard(graph, ged, plan.pivot, plan.shards[index], index)
        first, second, again = [r["explain"].splitlines() for r in slowlog.drain_slow_plans()]
        for lines, shard in ((first, plan.shards[0]), (second, plan.shards[1])):
            scan, extend = lines[1], lines[2]
            assert scan.startswith(f"  step 1: scan i [label item] — pool {len(shard)} ")
            assert "[obs. 1 frame(s)" in scan
            assert extend.startswith("  step 2: extend u [label user]")
            assert f"[obs. {len(shard)} frame(s)" in extend  # one per pivot image
        assert again == first
