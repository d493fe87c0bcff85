"""Snapshot roundtrips: lossless, compact, index-aware."""

import json
import os
import pathlib
import pickle
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import snapshot_graph
from repro.graph.graph import Graph
from repro.graph.io import UpdateLogWriter, graph_from_arrays, graph_to_arrays, scan_update_log
from repro.indexing import attach_index, detach_index, get_index
from repro.reasoning import find_violations
from repro.workloads import (
    bounded_rule_set,
    overlapping_rule_set,
    overlapping_workload,
    synthetic_social_network,
    validation_workload,
)
from repro.workloads.churn import _ChurnGenerator
from tests.packed_columns import INTEGER_COLUMNS, as_lists, integers


def tricky_graph() -> Graph:
    g = Graph()
    g.add_node("a", "thing", count=1, flag=True, ratio=1.0, name="a")
    g.add_node("b", "thing", count=1, name="a")  # shared values interned once
    g.add_node("c", "other", blob=("nested", ("tuple", 3)))
    g.add_edge("a", "rel", "b")
    g.add_edge("b", "rel", "a")
    g.add_edge("a", "other_rel", "c")
    return g


class TestArrays:
    @pytest.mark.parametrize(
        "factory",
        [
            tricky_graph,
            lambda: validation_workload(150, rng=7),
            lambda: synthetic_social_network(n_rings=2, rng=3)[0],
            Graph,  # empty graph
        ],
    )
    def test_roundtrip_equality(self, factory):
        graph = factory()
        assert graph_from_arrays(graph_to_arrays(graph)) == graph

    def test_type_identity_preserved(self):
        # 1, 1.0 and True are == but must not collapse in the pool.
        g = tricky_graph()
        restored = graph_from_arrays(graph_to_arrays(g))
        assert restored.node("a").get("count") is not True
        assert type(restored.node("a").get("count")) is int
        assert type(restored.node("a").get("flag")) is bool
        assert type(restored.node("a").get("ratio")) is float

    def test_unhashable_attribute_values_survive(self):
        g = Graph()
        g.add_node("n", "thing", payload=["a", "list"])
        restored = graph_from_arrays(graph_to_arrays(g))
        assert restored.node("n").get("payload") == ["a", "list"]

    def test_flat_encoding_is_smaller_than_object_pickle(self):
        graph = validation_workload(400, rng=13)
        flat = len(pickle.dumps(graph_to_arrays(graph), pickle.HIGHEST_PROTOCOL))
        naive = len(pickle.dumps(graph, pickle.HIGHEST_PROTOCOL))
        assert flat < naive / 2


def decode_per_element(data) -> Graph:
    """The reference decoder: one Graph call per node, attribute and
    edge row, each validating and bumping the version."""
    pool = data["pool"]
    column = {name: integers(data[name]) for name in INTEGER_COLUMNS}
    graph = Graph()
    ids = []
    for id_slot, label_slot in zip(column["node_ids"], column["node_labels"]):
        ids.append(pool[id_slot])
        graph.add_node(pool[id_slot], pool[label_slot])
    for position, name_slot, value_slot in zip(
        column["attr_node"], column["attr_name"], column["attr_value"]
    ):
        graph.set_attribute(ids[position], pool[name_slot], pool[value_slot])
    for src, label_slot, dst in zip(column["edge_src"], column["edge_label"], column["edge_dst"]):
        graph.add_edge(ids[src], pool[label_slot], ids[dst])
    return graph


def checkpoint_payload(graph: Graph, tmp_path) -> dict:
    """The arrays of a real checkpoint record, as a recovery reads them."""
    path = tmp_path / "checkpoint.jsonl"
    with UpdateLogWriter(path) as writer:
        writer.checkpoint(graph)
    (record,) = scan_update_log(path)
    return record["arrays"]


def typed_attrs(graph: Graph) -> list:
    return [
        (node.id, [(name, type(value), value) for name, value in node.attributes.items()])
        for node in graph.nodes
    ]


def assert_same_tables(decoded: Graph, source: Graph, reference: Graph) -> None:
    """``decoded`` equals ``source`` table by table, and carries the
    version the per-element ``reference`` build counted."""
    assert decoded == source
    assert decoded.node_ids == source.node_ids == reference.node_ids
    assert typed_attrs(decoded) == typed_attrs(source)
    for label in source.labels | {None}:
        assert decoded.label_row(label) == source.label_row(label)
    for node_id in source.node_ids:
        for label in source.edge_labels:
            assert decoded.out_row(node_id, label) == source.out_row(node_id, label)
            assert decoded.in_row(node_id, label) == source.in_row(node_id, label)
        # Row labels in first-insertion order, as the reference left them.
        assert list(decoded._out[node_id]) == list(reference._out[node_id])
        assert list(decoded._in[node_id]) == list(reference._in[node_id])
    attr_entries = sum(len(node.attributes) for node in source.nodes)
    assert decoded.version == reference.version
    assert decoded.version == source.num_nodes + attr_entries + source.num_edges


def churned(graph: Graph, attribute_names: list[str], seed: int) -> Graph:
    """``graph`` after a tail of churn batches, deletions included."""
    generator = _ChurnGenerator(
        graph,
        random.Random(seed),
        node_labels=["user", "item", "shop"],
        edge_labels=["buys", "sells", "rates"],
        attribute_names=attribute_names,
        attribute_values=[1, 2, 3],
        delete_fraction=0.5,
        min_nodes=graph.num_nodes // 2,
        id_prefix="churn",
    )
    batches = [generator.batch(8) for _ in range(20)]
    assert any(b.del_nodes and b.del_edges and b.del_attrs for b in batches)
    return generator.shadow


class TestBulkDecode:
    """``graph_from_arrays`` builds in bulk what the per-element decoder
    built one call at a time, from each of its inputs: the snapshot's
    ``array('I')`` columns, a format-2 checkpoint's packed columns and
    a format-1 checkpoint's JSON lists."""

    def payloads(self, graph: Graph, tmp_path) -> list:
        packed = checkpoint_payload(graph, tmp_path)
        assert all(isinstance(packed[name], str) for name in INTEGER_COLUMNS)
        return [graph_to_arrays(graph), packed, as_lists(packed)]

    @pytest.mark.parametrize(
        "workload",
        [
            lambda: (churned(validation_workload(300, rng=5), ["score", "region"], 9),
                     bounded_rule_set()),
            lambda: (churned(overlapping_workload(300, rng=5), ["tier", "score"], 9),
                     overlapping_rule_set(6)),
        ],
        ids=["validation", "overlapping"],
    )
    def test_decode_matches_per_element_build(self, workload, tmp_path):
        source, sigma = workload()
        report = find_violations(source, sigma)
        decoded = []
        for data in self.payloads(source, tmp_path):
            graph = graph_from_arrays(data)
            assert_same_tables(graph, source, decode_per_element(data))
            assert find_violations(graph, sigma) == report
            decoded.append(graph)
        attach_index(source)
        indexed_report = find_violations(source, sigma)
        for graph in decoded:
            attach_index(graph)
            assert find_violations(graph, sigma) == indexed_report

    def test_edge_cases_round_trip(self, tmp_path):
        g = Graph()
        g.add_node("a", "thing", one=1, real=1.0, flag=True, payload=["a", "list"])
        g.add_node("b", "thing", one=1)
        g.add_node("lonely", "island")  # isolated
        g.add_edge("a", "loop", "a")  # self-loop
        g.add_edge("a", "knows", "b")  # two labels on one node pair
        g.add_edge("a", "likes", "b")
        for data in self.payloads(g, tmp_path):
            restored = graph_from_arrays(data)
            assert_same_tables(restored, g, decode_per_element(data))
            attrs = restored.node("a").attributes
            assert [type(attrs[name]) for name in ("one", "real", "flag", "payload")] == [
                int,
                float,
                bool,
                list,
            ]
            assert restored.out_row("a", "loop") == {"a"} == restored.in_row("a", "loop")
            assert restored.successors("lonely") == set() == restored.predecessors("lonely")

    def test_duplicate_edge_rows_are_idempotent(self):
        data = {
            "pool": ["a", "L", "b", "r"],
            "node_ids": [0, 2],
            "node_labels": [1, 1],
            "attr_node": [],
            "attr_name": [],
            "attr_value": [],
            "edge_src": [0, 0, 1],
            "edge_label": [3, 3, 3],
            "edge_dst": [1, 1, 0],
        }
        graph = graph_from_arrays(data)
        reference = decode_per_element(data)
        assert graph.edges == {("a", "r", "b"), ("b", "r", "a")}
        assert graph.out_row("a", "r") == {"b"}
        assert graph.version == reference.version == 2 + 0 + 2
        assert_same_tables(graph, reference, reference)


#: Strings shared between node ids, labels, attribute names, edge labels
#: and string values, so the pool's sections overlap.
WORDS = ["a", "b", "L", "M", "x", "r"]
#: Values that compare equal across types (the pool keeps them apart by
#: keying it ``(type, value)``), unhashable ones, and strings that are
#: also ids, labels or names.
VALUES = [1, 1.0, True, 0, False, 0.0, None, "a", "L", "x", ["a", 1], [1.0, [True]]]
OPS = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(WORDS),
        st.sampled_from(WORDS),
        st.sampled_from(WORDS),
        st.integers(0, len(VALUES) - 1),
    ),
    max_size=80,
)


def build(ops) -> Graph:
    """A graph after a churn of ops: node adds and re-adds of deleted
    ids, node/edge/attribute deletions and attribute overwrites; an op
    the graph would refuse is skipped."""
    g = Graph()
    for kind, first, second, third, value in ops:
        if kind == 0 and not g.has_node(first):
            g.add_node(first, second, {third: VALUES[value]})
        elif kind == 1 and g.has_node(first) and g.has_node(third):
            g.add_edge(first, second, third)
        elif kind == 2 and g.has_node(first):
            g.set_attribute(first, second, VALUES[value])
        elif kind == 3 and g.has_node(first):
            g.remove_node(first)
        elif kind == 4 and g.has_edge(first, second, third):
            g.remove_edge(first, second, third)
        elif kind == 5 and g.has_node(first) and g.node(first).has_attribute(second):
            g.remove_attribute(first, second)
    return g


def checkpoint_bytes(graph: Graph) -> bytes:
    """The bytes of a real checkpoint line of ``graph``."""
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "checkpoint.jsonl"
        with UpdateLogWriter(path) as writer:
            writer.checkpoint(graph)
        return path.read_bytes()


class TestEncoderProperties:
    """The encoder lists nodes, attributes and edges in table order, so
    a decoded checkpoint keeps every order of its source and encodes
    back to the same bytes."""

    @settings(max_examples=150, deadline=None)
    @given(OPS)
    def test_decode_keeps_tables_and_orders(self, ops):
        source = build(ops)
        record = json.loads(checkpoint_bytes(source))
        assert record["format"] == 2
        packed = record["arrays"]
        for data in (graph_to_arrays(source), packed, as_lists(packed)):
            decoded = graph_from_arrays(data)
            assert_same_tables(decoded, source, decode_per_element(data))
            assert list(decoded._edges) == list(source._edges)
            assert checkpoint_bytes(decoded) == checkpoint_bytes(source)

    @settings(max_examples=100, deadline=None)
    @given(OPS)
    def test_pool_holds_each_typed_value_once(self, ops):
        source = build(ops)
        arrays = graph_to_arrays(source)
        pool = arrays["pool"]
        assert list(arrays["node_ids"]) == list(range(source.num_nodes))
        hashable = [(type(v), v) for v in pool if not isinstance(v, list)]
        assert len(hashable) == len(set(hashable))
        unhashable = [v for node in source.nodes for v in node.attributes.values()
                      if isinstance(v, list)]
        assert len(pool) - len(hashable) == len(unhashable)
        ids = source.node_ids
        assert pool[: len(ids)] == ids
        strings = ({node.label for node in source.nodes} | {
            name for node in source.nodes for name in node.attributes
        } | source.edge_labels) - set(ids)
        assert set(pool[len(ids): len(ids) + len(strings)]) == strings

    def test_checkpoint_bytes_ignore_hash_seed(self):
        """Two interpreters with different string hashing write the
        same checkpoint of the same build."""
        script = (
            "import sys\n"
            "from tests.engine.test_snapshot import checkpoint_bytes, churned\n"
            "from repro.workloads import validation_workload\n"
            "graph = churned(validation_workload(200, rng=5), ['score', 'region'], 9)\n"
            "sys.stdout.buffer.write(checkpoint_bytes(graph))\n"
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
        assert json.loads(outputs[0])["type"] == "checkpoint"

    def test_old_layout_still_decodes(self):
        """A checkpoint of the first-seen pool and sorted edges, as
        written before edges kept their insertion order."""
        old = {
            "attr_name": [2, 4, 2, 9, 12], "attr_node": [0, 0, 1, 1, 2],
            "attr_value": [3, 5, 8, 10, 0], "edge_dst": [1, 0, 1, 1],
            "edge_label": [13, 14, 13, 15], "edge_src": [2, 2, 0, 0],
            "node_ids": [0, 6, 11], "node_labels": [1, 7, 1],
            "pool": ["u2", "user", "score", 1, "vip", True, "i1", "item", 1.0, "tags",
                     ["new", 2], "u1", "region", "buys", "knows", "rates"],
        }
        expected = Graph()
        expected.add_node("u2", "user", score=1, vip=True)
        expected.add_node("i1", "item", score=1.0, tags=["new", 2])
        expected.add_node("u1", "user", region="u2")
        for edge in sorted([("u2", "rates", "i1"), ("u1", "buys", "i1"),
                            ("u2", "buys", "i1"), ("u1", "knows", "u2")]):
            expected.add_edge(*edge)
        decoded = graph_from_arrays(old)
        assert_same_tables(decoded, expected, decode_per_element(old))
        assert list(decoded._edges) == list(expected._edges)


class TestSnapshot:
    def test_restore_without_index(self):
        graph = validation_workload(100, rng=1)
        detach_index(graph)
        snapshot = snapshot_graph(graph)
        assert not snapshot.indexed
        restored = snapshot.restore()
        assert restored == graph
        assert get_index(restored) is None

    def test_restore_rebuilds_index(self):
        graph = validation_workload(100, rng=1)
        attach_index(graph)
        snapshot = snapshot_graph(graph)
        assert snapshot.indexed
        restored = snapshot.restore()
        assert restored == graph
        index = get_index(restored)
        assert index is not None and index.synced_version == restored.version

    def test_ensure_index_attaches(self):
        graph = validation_workload(60, rng=2)
        detach_index(graph)
        snapshot = snapshot_graph(graph, ensure_index=True)
        assert snapshot.indexed
        assert get_index(graph) is not None

    def test_version_and_counts_recorded(self):
        graph = validation_workload(60, rng=2)
        snapshot = snapshot_graph(graph)
        assert snapshot.version == graph.version
        assert snapshot.num_nodes == graph.num_nodes
        assert snapshot.num_edges == graph.num_edges
        assert len(snapshot.payload()) > 0
