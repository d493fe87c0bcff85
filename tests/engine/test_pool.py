"""Pool lifecycle: one broadcast, warm reuse, version-keyed retirement."""

import pytest

from repro.engine import (
    EnginePool,
    get_pool,
    plan_tasks,
    pool_for,
    release_pool,
    resolve_workers,
    shutdown_pools,
)
from repro.engine.snapshot import snapshot_graph
from repro.indexing import attach_index, detach_index
from repro.matching.homomorphism import count_matches
from repro.parallel import parallel_find_violations
from repro.patterns.pattern import Pattern
from repro.reasoning import find_violations
from repro.repair.suggest import suggest_repairs, suggest_repairs_batch
from repro.workloads import bounded_rule_set, validation_workload


class TestResolveWorkers:
    def test_none_defaults_to_cpu_count(self):
        import os

        assert resolve_workers(None) == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_zero_and_negative_rejected(self, bad):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers(bad)

    @pytest.mark.parametrize("bad", [2.5, "4", True])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)

    def test_explicit_counts_honored(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7


class TestPoolRegistry:
    def test_warm_pool_reused(self):
        graph = validation_workload(80, rng=5)
        first = get_pool(graph, 2)
        second = get_pool(graph, 2)
        assert first is second
        assert pool_for(graph) is first

    def test_mutation_retires_pool(self):
        graph = validation_workload(80, rng=5)
        first = get_pool(graph, 2)
        graph.add_node("extra", "user")
        second = get_pool(graph, 2)
        assert second is not first
        assert first.closed

    def test_worker_count_change_retires_pool(self):
        graph = validation_workload(80, rng=5)
        first = get_pool(graph, 2)
        second = get_pool(graph, 3)
        assert second is not first and first.closed

    def test_index_attachment_change_retires_pool(self):
        graph = validation_workload(80, rng=5)
        detach_index(graph)
        unindexed = get_pool(graph, 2)
        assert not unindexed.indexed
        attach_index(graph)
        indexed = get_pool(graph, 2)
        assert indexed is not unindexed and indexed.indexed

    def test_release_pool(self):
        graph = validation_workload(80, rng=5)
        pool = get_pool(graph, 2)
        release_pool(graph)
        assert pool.closed and pool_for(graph) is None

    def test_shutdown_pools(self):
        graph = validation_workload(80, rng=5)
        pool = get_pool(graph, 2)
        shutdown_pools()
        assert pool.closed and pool_for(graph) is None
        with pytest.raises(RuntimeError):
            pool.count_patterns([Pattern({"x": "user"})])


class TestPoolAdapters:
    def test_warm_pool_serves_repeated_validations(self):
        graph = validation_workload(120, rng=9)
        sigma = bounded_rule_set()
        attach_index(graph)
        first = parallel_find_violations(graph, sigma, workers=2, backend="engine")
        pool = pool_for(graph)
        assert pool is not None and not pool.closed
        second = parallel_find_violations(graph, sigma, workers=2, backend="engine")
        assert pool_for(graph) is pool  # same warm pool, no re-broadcast
        assert first.violations == second.violations
        assert first.indexed and second.indexed

    @staticmethod
    def _one_shot(graph, sigma, workers):
        """A private pool for one validation, as the perf gate's one-shot
        measurement builds it: snapshot, start-up broadcast, one
        validation, close."""
        pool = EnginePool(snapshot_graph(graph), workers)
        try:
            results = pool.validate_units(plan_tasks(graph, sigma, workers))
        finally:
            pool.close()
        found = [v for violations, _ in results for v in violations]
        return pool, sorted(found, key=lambda v: (v.ged.name or "", str(v.ged), v.match))

    def test_private_pool_tears_down_and_matches_serial(self):
        graph = validation_workload(100, rng=9)
        sigma = bounded_rule_set()
        pool, found = self._one_shot(graph, sigma, 2)
        assert pool.closed and pool_for(graph) is None
        serial = parallel_find_violations(graph, sigma, workers=2, backend="serial")
        assert found == serial.violations

    def test_private_pool_leaves_warm_engine_pool_alone(self):
        # A private pool may neither reuse nor retire the graph's
        # registered warm pool.
        graph = validation_workload(100, rng=9)
        sigma = bounded_rule_set()
        parallel_find_violations(graph, sigma, workers=2, backend="engine")
        warm = pool_for(graph)
        assert warm is not None and not warm.closed
        calls_before = warm.calls
        self._one_shot(graph, sigma, 2)
        assert pool_for(graph) is warm and not warm.closed
        assert warm.calls == calls_before  # the validation ran on its own pool

    def test_empty_sigma_builds_no_pool(self):
        graph = validation_workload(100, rng=9)
        report = parallel_find_violations(graph, [], workers=4, backend="engine")
        assert report.valid and report.stats == []
        assert pool_for(graph) is None

    def test_retired_pool_closes_when_graph_is_collected(self):
        graph = validation_workload(60, rng=9)
        pool = get_pool(graph, 2)
        del graph
        import gc

        gc.collect()
        assert pool.closed

    def test_count_patterns_matches_serial(self):
        graph = validation_workload(100, rng=4)
        patterns = [
            Pattern({"x": "user"}),
            Pattern({"x": "shop", "y": "item"}, [("x", "sells", "y")]),
            Pattern({"x": "user", "y": "item"}, [("x", "buys", "y")]),
        ]
        pooled = get_pool(graph, 2).count_patterns(patterns)
        assert pooled == [count_matches(p, graph) for p in patterns]

    def test_suggest_repairs_batch_matches_serial(self):
        graph = validation_workload(150, rng=13)
        sigma = bounded_rule_set()
        violations = find_violations(graph, sigma)
        assert violations  # the workload plants errors
        serial = [suggest_repairs(graph, v) for v in violations]
        pooled = suggest_repairs_batch(graph, violations, workers=2)
        assert pooled == serial

    def test_suggest_repairs_batch_serial_path(self):
        graph = validation_workload(100, rng=13)
        violations = find_violations(graph, bounded_rule_set())
        assert suggest_repairs_batch(graph, violations, workers=1) == [
            suggest_repairs(graph, v) for v in violations
        ]
