"""Deletion support: graph primitives and index maintenance parity."""

import random

import pytest

from repro.errors import GraphError
from repro.graph import GraphBuilder
from repro.graph.update import GraphUpdate
from repro.indexing import (
    IndexMaintenance,
    attach_index,
    build_indexes,
    get_index,
)
from repro.indexing.maintenance import apply_update_indexed
from repro.workloads import validation_workload


def small_graph():
    return (
        GraphBuilder()
        .node("a", "L", x=1)
        .node("b", "M", y=2)
        .node("c", "L")
        .edge("a", "r", "b")
        .edge("b", "s", "c")
        .edge("a", "r", "c")
        .build()
    )


class TestGraphPrimitives:
    def test_remove_edge(self):
        g = small_graph()
        v = g.version
        g.remove_edge("a", "r", "b")
        assert not g.has_edge("a", "r", "b")
        assert g.successors("a", "r") == {"c"}
        assert g.predecessors("b") == set()
        assert g.version == v + 1

    def test_remove_missing_edge_raises(self):
        g = small_graph()
        with pytest.raises(GraphError, match="missing edge"):
            g.remove_edge("a", "r", "a")

    def test_remove_attribute(self):
        g = small_graph()
        g.remove_attribute("a", "x")
        assert not g.node("a").has_attribute("x")
        with pytest.raises(GraphError, match="no attribute"):
            g.remove_attribute("a", "x")

    def test_remove_node_cascades_edges(self):
        g = small_graph()
        removed = g.remove_node("c")
        assert set(removed) == {("b", "s", "c"), ("a", "r", "c")}
        assert not g.has_node("c")
        assert g.num_edges == 1
        assert g.successors("a") == {"b"}
        assert "c" not in g.nodes_with_label("L")

    def test_remove_last_node_of_label_clears_label(self):
        g = small_graph()
        g.remove_node("b")
        assert "M" not in g.labels

    def test_removed_node_id_can_be_reused(self):
        g = small_graph()
        g.remove_node("b")
        g.add_node("b", "N")
        assert g.node("b").label == "N"

    def test_self_loop_removal(self):
        g = GraphBuilder().node("a", "L").build()
        g.add_edge("a", "r", "a")
        removed = g.remove_node("a")
        assert removed == [("a", "r", "a")]
        assert g.num_nodes == 0 and g.num_edges == 0


def assert_patch_equals_rebuild(graph, index):
    fresh = build_indexes(graph)
    patched, rebuilt = index.snapshot(), fresh.snapshot()
    for structure in patched:
        assert patched[structure] == rebuilt[structure], structure


class TestMaintenanceDeletions:
    def test_mixed_batch_parity(self):
        g = small_graph()
        index = attach_index(g)
        update = GraphUpdate(
            nodes=[("d", "L", {"x": 2})],
            edges=[("d", "r", "a")],
            attrs=[("a", "x", 9)],
            del_edges=[("b", "s", "c")],
            del_attrs=[("b", "y")],
            del_nodes=["c"],
        )
        report = IndexMaintenance(g, index).apply(update)
        assert report.edges_removed == 1
        assert report.attrs_removed == 1
        assert report.nodes_removed == 1
        assert index.synced_version == g.version
        assert_patch_equals_rebuild(g, index)

    def test_node_deletion_repairs_neighbor_signatures(self):
        g = small_graph()
        index = attach_index(g)
        apply_update_indexed(g, GraphUpdate(del_nodes=["c"]))
        # a lost its (r, L) out-pair witness through c; b its (s, L).
        assert ("r", "L") not in index.out_pairs["a"]
        assert ("r", "M") in index.out_pairs["a"]
        assert index.out_total["b"] == 0
        assert_patch_equals_rebuild(g, index)

    def test_surviving_witness_keeps_pair(self):
        g = small_graph()
        index = attach_index(g)
        # a has two (r, L)-shaped witnesses? No: (a,r,b) is (r,M),
        # (a,r,c) is (r,L).  Add a second L-target first.
        apply_update_indexed(g, GraphUpdate(nodes=[("c2", "L", {})], edges=[("a", "r", "c2")]))
        apply_update_indexed(g, GraphUpdate(del_edges=[("a", "r", "c")]))
        assert ("r", "L") in index.out_pairs["a"]
        assert_patch_equals_rebuild(g, index)

    def test_unindexable_flag_clears_when_last_unhashable_goes(self):
        g = GraphBuilder().node("a", "L").node("b", "L").build()
        g.set_attribute("a", "tags", [1, 2])  # unhashable
        g.set_attribute("b", "tags", "ok")
        index = attach_index(g)
        assert "tags" in index.unindexable_attrs
        apply_update_indexed(g, GraphUpdate(del_attrs=[("a", "tags")]))
        assert "tags" not in index.unindexable_attrs
        assert index.nodes_with_attr_value("tags", "ok") == {"b"}
        assert_patch_equals_rebuild(g, index)

    def test_unindexable_flag_clears_on_overwrite(self):
        g = GraphBuilder().node("a", "L").build()
        g.set_attribute("a", "tags", [1, 2])
        index = attach_index(g)
        assert "tags" in index.unindexable_attrs
        apply_update_indexed(g, GraphUpdate(attrs=[("a", "tags", "plain")]))
        assert "tags" not in index.unindexable_attrs
        assert_patch_equals_rebuild(g, index)

    def test_unindexable_flag_persists_when_another_remains(self):
        g = GraphBuilder().node("a", "L").node("b", "L").build()
        g.set_attribute("a", "tags", [1])
        g.set_attribute("b", "tags", [2])
        index = attach_index(g)
        apply_update_indexed(g, GraphUpdate(del_attrs=[("a", "tags")]))
        assert "tags" in index.unindexable_attrs
        assert_patch_equals_rebuild(g, index)

    def test_unindexable_flag_clears_when_its_node_goes(self):
        """Deleting the node that holds the last unhashable value
        clears the flag, as deleting the attribute does."""
        g = GraphBuilder().node("a", "L").node("b", "L").build()
        g.set_attribute("a", "tags", [1, 2])
        g.set_attribute("b", "tags", "ok")
        index = attach_index(g)
        assert "tags" in index.unindexable_attrs
        apply_update_indexed(g, GraphUpdate(del_nodes=["a"]))
        assert "tags" not in index.unindexable_attrs
        assert index.nodes_with_attr_value("tags", "ok") == {"b"}
        assert_patch_equals_rebuild(g, index)

    def test_maintenance_counts_reach_the_telemetry_sink(self):
        from repro.telemetry import metrics

        g = small_graph()
        index = attach_index(g)
        update = GraphUpdate(
            nodes=[("d", "M", {"y": 3})],
            edges=[("d", "s", "a"), ("a", "r", "b")],  # the second exists already
            attrs=[("c", "x", 4)],
            del_edges=[("b", "s", "c")],
            del_attrs=[("a", "x")],
        )
        with metrics.collecting() as registry:
            report = IndexMaintenance(g, index).apply(update)
        assert (report.nodes_added, report.edges_added, report.attrs_written) == (1, 1, 1)
        assert (report.edges_removed, report.attrs_removed, report.nodes_removed) == (1, 1, 0)
        assert report.total_operations() == 5
        assert registry.counter_value("index.maintenance_batches") == 1
        assert registry.counter_value("index.maintenance_ops") == 5
        assert_patch_equals_rebuild(g, index)

    def test_deletion_retires_warm_engine_pool(self):
        """Deletions advance the mutation version, so a warm engine
        pool snapshotted before the batch must not be reused."""
        from repro.engine import get_pool, release_pool

        g = validation_workload(30, rng=1)
        pool = get_pool(g, workers=2)
        try:
            apply_update_indexed(g, GraphUpdate(del_nodes=[g.node_ids[0]]))
            fresh = get_pool(g, workers=2)
            assert fresh is not pool
            assert pool.closed
        finally:
            release_pool(g)

    def test_randomized_delete_heavy_parity(self):
        rng = random.Random(99)
        g = validation_workload(80, rng=99)
        index = attach_index(g)
        for step in range(25):
            kind = rng.choice(("edge", "attr", "node", "mixed"))
            update = None
            if kind == "edge" and g.num_edges:
                update = GraphUpdate(del_edges=[rng.choice(sorted(g.edges))])
            elif kind == "attr":
                carriers = [n for n in g.node_ids if g.node(n).attributes]
                if carriers:
                    n = rng.choice(carriers)
                    update = GraphUpdate(
                        del_attrs=[(n, rng.choice(sorted(g.node(n).attributes)))]
                    )
            elif kind == "node" and g.num_nodes > 10:
                update = GraphUpdate(del_nodes=[rng.choice(g.node_ids)])
            else:
                update = GraphUpdate(
                    nodes=[(f"x{step}", "user", {"score": 1})],
                    edges=[(f"x{step}", "buys", rng.choice(g.node_ids))],
                )
            if update is None:
                continue
            apply_update_indexed(g, update)
            assert get_index(g) is index, "index must stay synced"
        assert_patch_equals_rebuild(g, index)
