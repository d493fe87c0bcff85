"""Unit tests for the property-graph substrate."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import GraphError
from repro.graph import Graph, GraphBuilder


def simple_graph() -> Graph:
    g = Graph()
    g.add_node("a", "person", name="Ada")
    g.add_node("b", "product", title="Game")
    g.add_edge("a", "create", "b")
    return g


class TestNodeConstruction:
    def test_node_has_label_and_attributes(self):
        g = simple_graph()
        node = g.node("a")
        assert node.label == "person"
        assert node.attributes == {"name": "Ada"}

    def test_id_is_not_an_attribute(self):
        g = simple_graph()
        assert not g.node("a").has_attribute("id")

    def test_setting_id_attribute_is_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_node("x", "person", id="boom")

    def test_empty_node_id_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_node("", "person")

    def test_empty_label_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_node("x", "")

    def test_duplicate_node_rejected(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.add_node("a", "person")

    def test_attrs_mapping_and_kwargs_merge(self):
        g = Graph()
        g.add_node("x", "v", {"a": 1}, b=2)
        assert g.node("x").attributes == {"a": 1, "b": 2}

    def test_get_with_default(self):
        g = simple_graph()
        assert g.node("a").get("name") == "Ada"
        assert g.node("a").get("missing", 7) == 7


class TestEdges:
    def test_edge_requires_existing_endpoints(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.add_edge("a", "r", "zzz")
        with pytest.raises(GraphError):
            g.add_edge("zzz", "r", "a")

    def test_edge_label_nonempty(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.add_edge("a", "", "b")

    def test_edges_are_a_set(self):
        g = simple_graph()
        g.add_edge("a", "create", "b")
        assert g.num_edges == 1

    def test_parallel_edges_with_distinct_labels(self):
        g = simple_graph()
        g.add_edge("a", "like", "b")
        assert g.num_edges == 2
        assert g.successors("a", "create") == {"b"}
        assert g.successors("a", "like") == {"b"}

    def test_self_loop_allowed(self):
        g = simple_graph()
        g.add_edge("a", "knows", "a")
        assert g.has_edge("a", "knows", "a")

    def test_successors_predecessors(self):
        g = simple_graph()
        assert g.successors("a") == {"b"}
        assert g.predecessors("b") == {"a"}
        assert g.successors("b") == set()
        assert g.predecessors("b", "create") == {"a"}
        assert g.predecessors("b", "like") == set()

    def test_degrees(self):
        g = simple_graph()
        assert g.out_degree("a") == 1
        assert g.in_degree("a") == 0
        assert g.in_degree("b") == 1

    def test_in_out_edges_iterators(self):
        g = simple_graph()
        assert list(g.out_edges("a")) == [("a", "create", "b")]
        assert list(g.in_edges("b")) == [("a", "create", "b")]

    def test_unknown_node_queries_raise(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.successors("zzz")
        with pytest.raises(GraphError):
            g.predecessors("zzz")
        with pytest.raises(GraphError):
            g.node("zzz")

    def test_row_lookups_of_unknown_node_raise(self):
        g = simple_graph()
        assert g.out_row("a", "create") == {"b"}
        with pytest.raises(GraphError, match="unknown node 'zzz'"):
            g.out_row("zzz", "create")
        with pytest.raises(GraphError, match="unknown node 'zzz'"):
            g.in_row("zzz", "create")


#: Interned columns of a two-node graph (a -create-> b, a.name = Ada),
#: spelled out: ``pool`` slots 7-9 are spare values the malformed cases
#: point at.
POOL = ["a", "person", "b", "product", "name", "Ada", "create", "id", 7, ""]
COLUMNS = {
    "node_ids": [0, 2],
    "node_labels": [1, 3],
    "attr_node": [0],
    "attr_name": [4],
    "attr_value": [5],
    "edge_src": [0],
    "edge_label": [6],
    "edge_dst": [1],
}

MALFORMED_COLUMNS = [
    # (columns replaced, error fragment)
    ({"attr_value": []}, "attr_node, attr_name and attr_value differ in length"),
    ({"attr_name": [7]}, "'id' is the reserved node identity"),
    ({"node_ids": [0, 0]}, "node 'a' already exists"),
    ({"node_ids": [0, 9]}, "node id must be a non-empty string, got ''"),
    ({"node_labels": [1, 8]}, "node label must be a non-empty string, got 7"),
    ({"attr_name": [8]}, "attribute name must be a non-empty string, got 7"),
    ({"edge_label": [9]}, "edge label must be a non-empty string, got ''"),
    ({"node_ids": [0, 99]}, r"node_ids holds an index outside range\(10\)"),
    ({"attr_value": [10]}, r"attr_value holds an index outside range\(10\)"),
    ({"attr_node": [2]}, r"attr_node holds an index outside range\(2\)"),
    ({"edge_src": [-1]}, r"edge_src holds an index outside range\(2\)"),
]


class TestFromColumns:
    """The bulk constructor refuses what the per-element calls refuse."""

    def test_well_formed_columns_build_the_graph(self):
        g = Graph.from_columns(POOL, *COLUMNS.values())
        # Nodes, then attributes, then edges, one call at a time.
        expected = Graph()
        expected.add_node("a", "person")
        expected.add_node("b", "product")
        expected.set_attribute("a", "name", "Ada")
        expected.add_edge("a", "create", "b")
        assert g == expected and g.version == expected.version
        assert g.node_ids == ["a", "b"]
        assert [g.node(n).label for n in g.node_ids] == ["person", "product"]
        assert g.node("a").attributes == {"name": "Ada"}
        assert g.edges == {("a", "create", "b")}

    @pytest.mark.parametrize(
        "replaced,fragment",
        MALFORMED_COLUMNS,
        ids=["-".join(replaced) + f"-{n}" for n, (replaced, _) in enumerate(MALFORMED_COLUMNS)],
    )
    def test_malformed_columns_rejected(self, replaced, fragment):
        with pytest.raises(GraphError, match=fragment):
            Graph.from_columns(POOL, *{**COLUMNS, **replaced}.values())


class TestIndexes:
    def test_nodes_with_label(self):
        g = simple_graph()
        assert g.nodes_with_label("person") == {"a"}
        assert g.nodes_with_label("nothing") == set()

    def test_labels_property(self):
        g = simple_graph()
        assert g.labels == {"person", "product"}

    def test_edge_labels(self):
        g = simple_graph()
        assert g.edge_labels == {"create"}


class TestWholeGraphOps:
    def test_copy_is_independent(self):
        g = simple_graph()
        clone = g.copy()
        assert clone == g
        clone.set_attribute("a", "name", "Bob")
        assert g.node("a").get("name") == "Ada"

    def test_structural_equality(self):
        assert simple_graph() == simple_graph()
        other = simple_graph()
        other.add_edge("b", "owns", "a")
        assert simple_graph() != other

    def test_disjoint_union_with_prefixes(self):
        g = simple_graph()
        u = g.disjoint_union(g, "l:", "r:")
        assert u.num_nodes == 4
        assert u.has_edge("l:a", "create", "l:b")
        assert u.has_edge("r:a", "create", "r:b")

    def test_induced_subgraph(self):
        g = simple_graph()
        g.add_node("c", "person")
        g.add_edge("c", "create", "b")
        sub = g.induced_subgraph(["a", "b"])
        assert sub.num_nodes == 2
        assert sub.has_edge("a", "create", "b")
        assert not sub.has_node("c")

    def test_induced_subgraph_keeps_table_order(self):
        g = simple_graph()
        g.add_node("c", "person")
        assert g.induced_subgraph(["c", "a"]).node_ids == ["a", "c"]
        assert g.induced_subgraph({"c", "b", "a"}).node_ids == ["a", "b", "c"]

    def test_induced_subgraph_rejects_unknown_ids(self):
        with pytest.raises(GraphError, match="unknown node 'z'"):
            simple_graph().induced_subgraph(["a", "z"])

    def test_induced_subgraph_columns_ignore_hash_seed(self):
        """Two interpreters with different string hashing induce the
        same subgraph columns from one set of ids."""
        script = (
            "from repro.workloads import validation_workload\n"
            "graph = validation_workload(40, rng=3)\n"
            "print(repr(graph.induced_subgraph(set(graph.node_ids)).to_columns()))\n"
        )
        root = pathlib.Path(__file__).resolve().parents[2]
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    cwd=root, env=env, capture_output=True, check=True, timeout=120,
                ).stdout
            )
        assert outputs[0] == outputs[1]

    def test_size_counts_nodes_edges_attrs(self):
        g = simple_graph()
        # 2 nodes + 1 edge + 2 attribute entries
        assert g.size() == 5

    def test_set_attribute(self):
        g = simple_graph()
        g.set_attribute("b", "year", 1989)
        assert g.node("b").get("year") == 1989
        with pytest.raises(GraphError):
            g.set_attribute("b", "id", 3)


class TestBuilder:
    def test_fluent_builder(self):
        g = (
            GraphBuilder()
            .node("x", "account", is_fake=1)
            .nodes("blog", "b1", "b2")
            .edge("x", "post", "b1")
            .edges("like", ("x", "b1"), ("x", "b2"))
            .undirected_edge("b1", "rel", "b2")
            .attr("b1", "keyword", "scam")
            .build()
        )
        assert g.num_nodes == 3
        assert g.has_edge("x", "post", "b1")
        assert g.has_edge("b1", "rel", "b2") and g.has_edge("b2", "rel", "b1")
        assert g.node("b1").get("keyword") == "scam"
        assert g.node("x").get("is_fake") == 1
