"""Indexing benchmarks: pruning power, validation speed, maintenance cost.

Three claims, each with a machine-independent structural counter next
to the wall-clock number:

* **Pruning** — on ``validation_workload(400)`` the indexed candidate
  pools are strictly smaller (summed over the bounded rule set's
  pattern variables) than the unindexed pools, while the violation sets
  are identical.  Candidate-pool size is exactly the number of nodes
  the backtracking matcher may touch at depth 0 of each variable, so
  "strictly fewer candidate nodes enumerated" is asserted, not eyeballed.
* **Validation** — end-to-end ``find_violations`` timed with and
  without the index (same workload, same rules, asserted-equal output).
* **Maintenance** — patching the index under a ``GraphUpdate`` batch
  (dirty-region work, O(|batch|)) vs. rebuilding it from scratch
  (O(|G|)); the patched index is asserted equal to the rebuilt one.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_indexing.py -q
"""


from repro.graph.update import GraphUpdate
from repro.indexing import (
    IndexMaintenance,
    attach_index,
    build_indexes,
    detach_index,
)
from repro.matching import candidate_sets
from repro.reasoning import find_violations
from repro.workloads import bounded_rule_set, validation_workload

WORKLOAD_SIZE = 400
WORKLOAD_SEED = 13


def total_candidates(graph, sigma) -> int:
    """Sum of candidate-pool sizes over every rule's pattern variables —
    the depth-0 node count the matcher enumerates."""
    return sum(
        len(pool)
        for ged in sigma
        for pool in candidate_sets(ged.pattern, graph).values()
    )


def update_batch(tag: str) -> GraphUpdate:
    """A small mixed batch against the standard workload graph."""
    return GraphUpdate(
        nodes=[
            (f"bn_{tag}_0", "user", {"score": 3}),
            (f"bn_{tag}_1", "item", {"score": 1}),
        ],
        edges=[
            (f"bn_{tag}_0", "buys", f"bn_{tag}_1"),
            ("n0", "rates", f"bn_{tag}_1"),
        ],
        attrs=[(f"bn_{tag}_0", "region", 2), ("n1", "score", 3)],
    )


class TestPruning:
    def test_indexed_enumerates_strictly_fewer_candidates(self):
        """The acceptance claim: same violations, strictly fewer
        candidate nodes on validation_workload(400)."""
        graph = validation_workload(WORKLOAD_SIZE, rng=WORKLOAD_SEED)
        sigma = bounded_rule_set()
        detach_index(graph)
        unindexed_candidates = total_candidates(graph, sigma)
        unindexed_violations = find_violations(graph, sigma)
        attach_index(graph)
        indexed_candidates = total_candidates(graph, sigma)
        indexed_violations = find_violations(graph, sigma)
        detach_index(graph)
        assert set(indexed_violations) == set(unindexed_violations)
        assert len(indexed_violations) == len(unindexed_violations)
        assert indexed_candidates < unindexed_candidates


class TestValidationSpeed:
    def test_unindexed_validation(self, benchmark):
        graph = validation_workload(WORKLOAD_SIZE, rng=WORKLOAD_SEED)
        sigma = bounded_rule_set()
        detach_index(graph)
        violations = benchmark(lambda: find_violations(graph, sigma))
        benchmark.extra_info["candidate_nodes"] = total_candidates(graph, sigma)
        benchmark.extra_info["violations"] = len(violations)

    def test_indexed_validation(self, benchmark):
        graph = validation_workload(WORKLOAD_SIZE, rng=WORKLOAD_SEED)
        sigma = bounded_rule_set()
        attach_index(graph)
        violations = benchmark(lambda: find_violations(graph, sigma))
        benchmark.extra_info["candidate_nodes"] = total_candidates(graph, sigma)
        benchmark.extra_info["violations"] = len(violations)
        detach_index(graph)


class TestMaintenance:
    def test_index_rebuild_from_scratch(self, benchmark):
        """The O(|G|) baseline the maintenance layer avoids."""
        graph = validation_workload(WORKLOAD_SIZE, rng=WORKLOAD_SEED)
        index = benchmark(lambda: build_indexes(graph))
        benchmark.extra_info["graph_size"] = graph.size()
        benchmark.extra_info["signature_pairs"] = sum(
            len(p) for p in index.out_pairs.values()
        )

    def test_incremental_maintenance_per_batch(self, benchmark):
        """O(|batch|) patching; each round gets a fresh graph copy so
        the timed target applies exactly one batch."""

        def fresh():
            graph = validation_workload(WORKLOAD_SIZE, rng=WORKLOAD_SEED)
            return (graph, build_indexes(graph)), {}

        def patch(graph, index):
            IndexMaintenance(graph, index).apply(update_batch("bench"))
            return graph, index

        graph, index = benchmark.pedantic(patch, setup=fresh, rounds=10)
        assert index.snapshot() == build_indexes(graph).snapshot()
        benchmark.extra_info["batch_operations"] = 6

    def test_maintained_index_equals_rebuilt_after_stream(self):
        """Structural check without timing: a stream of batches patched
        incrementally ends bit-identical to a rebuild."""
        graph = validation_workload(200, rng=WORKLOAD_SEED)
        index = attach_index(graph)
        for round_no in range(8):
            IndexMaintenance(graph, index).apply(update_batch(str(round_no)))
        assert index.snapshot() == build_indexes(graph).snapshot()
        detach_index(graph)
