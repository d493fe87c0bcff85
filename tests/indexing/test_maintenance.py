"""Incremental index maintenance == rebuild-from-scratch.

Randomized `GraphUpdate` batches are applied through the maintenance
layer; after every batch the patched index must equal a fresh
`build_indexes` of the updated graph, structure by structure, and the
delta kernel's, the ledger's and full validation's results must match
the unindexed ones.
"""

import random

import pytest

from repro.graph import Graph
from repro.indexing import (
    IndexMaintenance,
    apply_update_indexed,
    attach_index,
    build_indexes,
    detach_index,
    get_index,
)
from repro.graph.update import GraphUpdate, apply_update_plain, validate_update
from repro.reasoning import find_violations
from repro.streaming import ViolationLedger, delta_violations
from repro.workloads import bounded_rule_set, validation_workload


def random_update(graph: Graph, rng: random.Random, tag: str) -> GraphUpdate:
    """A well-formed additive batch against the current graph state."""
    existing = graph.node_ids
    labels = ["user", "item", "shop"]
    new_nodes = []
    for i in range(rng.randint(0, 3)):
        attrs = {}
        if rng.random() < 0.7:
            attrs["score"] = rng.choice([1, 2, 3])
        new_nodes.append((f"n_{tag}_{i}", rng.choice(labels), attrs))
    pool = existing + [node_id for node_id, _, _ in new_nodes]
    edges = []
    for _ in range(rng.randint(0, 4)):
        edges.append(
            (rng.choice(pool), rng.choice(["buys", "sells", "rates"]), rng.choice(pool))
        )
    attrs = []
    for _ in range(rng.randint(0, 3)):
        attrs.append(
            (rng.choice(pool), rng.choice(["score", "region"]), rng.choice([1, 2, 3]))
        )
    return GraphUpdate(nodes=new_nodes, edges=edges, attrs=attrs)


class TestMaintenanceEqualsRebuild:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_randomized_batches(self, seed):
        rng = random.Random(seed)
        graph = validation_workload(60, rng=seed)
        index = attach_index(graph)
        for round_no in range(6):
            update = random_update(graph, rng, f"{seed}_{round_no}")
            apply_update_indexed(graph, update)  # routes through maintenance
            assert get_index(graph) is index, "maintenance must keep the index synced"
            assert index.snapshot() == build_indexes(graph).snapshot()
        detach_index(graph)

    def test_maintenance_report_counts(self):
        graph = Graph()
        graph.add_node("a", "user", score=1)
        graph.add_node("b", "item")
        index = attach_index(graph)
        update = GraphUpdate(
            nodes=[("c", "shop", {"region": 2})],
            edges=[("a", "buys", "b"), ("c", "sells", "b"), ("a", "buys", "b")],
            attrs=[("a", "score", 3)],
        )
        report = IndexMaintenance(graph, index).apply(update)
        assert report.nodes_added == 1
        assert report.edges_added == 2  # the duplicate edge is a no-op
        assert report.attrs_written == 1
        assert report.dirty_nodes == {"a", "b", "c"}
        assert index.snapshot() == build_indexes(graph).snapshot()

    def test_attribute_overwrite_moves_posting(self):
        graph = Graph()
        graph.add_node("a", "user", score=1)
        index = attach_index(graph)
        apply_update_indexed(graph, GraphUpdate(attrs=[("a", "score", 3)]))
        assert index.nodes_with_attr_value("score", 1) == set()
        assert index.nodes_with_attr_value("score", 3) == {"a"}

    def test_stale_index_refused(self):
        graph = Graph()
        graph.add_node("a", "user")
        index = attach_index(graph)
        graph.add_node("b", "user")  # behind the maintainer's back
        with pytest.raises(ValueError, match="stale"):
            IndexMaintenance(graph, index).apply(GraphUpdate())

    def test_apply_update_indexed_without_index_matches_plain(self):
        g1 = validation_workload(40, rng=3)
        g2 = validation_workload(40, rng=3)
        update = GraphUpdate(
            nodes=[("x1", "user", {"score": 2})], edges=[("x1", "buys", "x1")]
        )
        apply_update_indexed(g1, update)  # no index attached -> plain path
        validate_update(g2, update)
        apply_update_plain(g2, update)
        assert g1.has_edge("x1", "buys", "x1")
        assert g1 == g2


class TestIncrementalValidationEquality:
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_delta_violations_indexed_vs_not(self, seed):
        rng = random.Random(seed)
        sigma = bounded_rule_set()
        indexed_graph = validation_workload(50, rng=seed)
        plain_graph = validation_workload(50, rng=seed)
        attach_index(indexed_graph)
        for round_no in range(4):
            update = random_update(indexed_graph, rng, f"{seed}_{round_no}")
            apply_update_indexed(indexed_graph, update)
            apply_update_indexed(plain_graph, update)
            assert indexed_graph == plain_graph
            touched = update.touched_nodes()
            got = delta_violations(indexed_graph, sigma, touched)
            want = delta_violations(plain_graph, sigma, touched)
            assert set(got) == set(want)
            # full revalidation agrees too
            assert set(find_violations(indexed_graph, sigma)) == set(
                find_violations(plain_graph, sigma)
            )
        detach_index(indexed_graph)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_ledger_equivalence_under_update_stream(self, seed):
        rng = random.Random(seed)
        sigma = bounded_rule_set()
        indexed_graph = validation_workload(50, rng=seed)
        plain_graph = validation_workload(50, rng=seed)
        attach_index(indexed_graph)
        led_indexed = ViolationLedger(indexed_graph, sigma)
        led_plain = ViolationLedger(plain_graph, sigma)
        assert led_indexed.bootstrap() == led_plain.bootstrap()
        for round_no in range(4):
            update = random_update(indexed_graph, rng, f"{seed}_{round_no}")
            delta_indexed = led_indexed.refresh(update).to_dict()
            delta_plain = led_plain.refresh(update).to_dict()
            delta_indexed.pop("wall_seconds")
            delta_plain.pop("wall_seconds")
            assert delta_indexed == delta_plain
            assert led_indexed.violations() == led_plain.violations()
            assert get_index(indexed_graph) is not None
        detach_index(indexed_graph)
