"""Whole-batch validation up front (for the apply path and the ledger
above it), duplicate-add semantics."""

import pytest

from repro.deps import GED, ConstantLiteral
from repro.errors import GraphError, ReproError
from repro.graph import GraphBuilder
from repro.graph.update import GraphUpdate, validate_update
from repro.indexing import attach_index, build_indexes, get_index
from repro.indexing.maintenance import apply_update_indexed
from repro.patterns import Pattern
from repro.reasoning import find_violations
from repro.streaming import ViolationLedger, canonical_report


def base_graph():
    return (
        GraphBuilder()
        .node("a", "L", x=1)
        .node("b", "M")
        .edge("a", "r", "b")
        .build()
    )


def snapshot(graph):
    index = get_index(graph)
    return (
        graph.version,
        sorted(graph.node_ids),
        sorted(graph.edges),
        {n.id: dict(n.attributes) for n in graph.nodes},
        index.snapshot() if index is not None else None,
    )


BAD_BATCHES = [
    # (update, error fragment) — each must name the offending tuple
    (GraphUpdate(edges=[("a", "r", "ghost")]), "ghost"),
    (GraphUpdate(edges=[("ghost", "r", "a")]), "ghost"),
    (GraphUpdate(attrs=[("ghost", "x", 1)]), "ghost"),
    (GraphUpdate(attrs=[("a", "id", 1)]), "id"),
    (GraphUpdate(del_edges=[("a", "zz", "b")]), "zz"),
    (GraphUpdate(del_nodes=["ghost"]), "ghost"),
    (GraphUpdate(del_attrs=[("a", "nope")]), "nope"),
    (GraphUpdate(del_attrs=[("ghost", "x")]), "ghost"),
    (GraphUpdate(nodes=[("a", "L", {})]), "already exists"),
    (GraphUpdate(nodes=[("n1", "L", {}), ("n1", "L", {})]), "duplicate node addition"),
    (GraphUpdate(del_nodes=["a", "a"]), "duplicate node deletion"),
    (GraphUpdate(del_edges=[("a", "r", "b"), ("a", "r", "b")]), "duplicate edge deletion"),
    (GraphUpdate(del_attrs=[("a", "x"), ("a", "x")]), "duplicate attribute deletion"),
    (GraphUpdate(nodes=[("", "L", {})]), "invalid node id"),
    (GraphUpdate(nodes=[(None, "L", {})]), "None"),
    (GraphUpdate(nodes=[("n2", "", {})]), "invalid node label"),
    (GraphUpdate(nodes=[("n2", "L", {"id": 1})]), "reserved node identity"),
    (GraphUpdate(nodes=[("n2", "L", {"": 1})]), "invalid attribute name"),
    (GraphUpdate(attrs=[("a", "", 1)]), "'a', '', 1"),
    (GraphUpdate(attrs=[("a", 7, 1)]), "'a', 7, 1"),
    (GraphUpdate(edges=[("a", "", "b")]), "invalid edge label"),
    (GraphUpdate(edges=[("a", None, "b")]), "'a', None, 'b'"),
    # references a node that the same batch deletes
    (GraphUpdate(del_nodes=["b"], edges=[("a", "r", "b")]), "missing node"),
    (GraphUpdate(del_nodes=["b"], attrs=[("b", "x", 1)]), "missing node"),
]


class TestAtomicValidation:
    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    @pytest.mark.parametrize(
        "update,fragment", BAD_BATCHES, ids=[f for _, f in BAD_BATCHES]
    )
    def test_bad_batch_rejected_before_any_mutation(self, update, fragment, indexed):
        g = base_graph()
        if indexed:
            attach_index(g)
        before = snapshot(g)
        with pytest.raises(ReproError, match=fragment):
            apply_update_indexed(g, update)
        assert snapshot(g) == before, "a rejected batch must not mutate anything"

    def test_bad_tail_does_not_apply_good_head(self):
        """The original failure mode: a bad element mid-batch used to
        leave the earlier elements applied."""
        g = base_graph()
        attach_index(g)
        before = snapshot(g)
        update = GraphUpdate(
            nodes=[("fresh", "L", {"x": 1})],
            edges=[("fresh", "r", "a"), ("fresh", "r", "missing")],
        )
        with pytest.raises(GraphError, match="missing"):
            apply_update_indexed(g, update)
        assert snapshot(g) == before
        assert not g.has_node("fresh")

    def test_validate_update_standalone(self):
        g = base_graph()
        validate_update(g, GraphUpdate(nodes=[("n", "L", {})], edges=[("n", "r", "a")]))
        with pytest.raises(GraphError):
            validate_update(g, GraphUpdate(edges=[("n", "r", "a")]))


class TestLedgerAtomicity:
    """The ledger inherits the apply path's atomicity: a rejected batch
    raises before the ledger moves, so its seq and entries stay as they
    were and the next good batch still gets an exact delta.  The ledger
    reads a batch's footprint before the apply path validates it, so
    every malformed kind goes through here too."""

    @pytest.mark.parametrize(
        "update,fragment", BAD_BATCHES, ids=[f for _, f in BAD_BATCHES]
    )
    def test_rejected_batch_leaves_the_ledger_untouched(self, update, fragment):
        g = base_graph()
        attach_index(g)
        # a.x = 1 breaks x.x = 2 on the one L -r-> M match: one entry.
        sigma = [
            GED(
                Pattern({"s": "L", "t": "M"}, [("s", "r", "t")]),
                [],
                [ConstantLiteral("s", "x", 2)],
                name="x-is-2",
            )
        ]
        ledger = ViolationLedger(g, sigma)
        ledger.bootstrap()
        before = (ledger.seq, ledger.entries(), snapshot(g))
        assert len(before[1]) == 1
        with pytest.raises(ReproError, match=fragment):
            ledger.refresh(update)
        assert (ledger.seq, ledger.entries(), snapshot(g)) == before
        delta = ledger.refresh(GraphUpdate(attrs=[("a", "x", 2)]))
        assert delta.seq == 1
        assert [v.match for v in delta.retired] == [(("s", "a"), ("t", "b"))]
        assert ledger.violations() == canonical_report(sigma, find_violations(g, sigma))
        assert get_index(g) is not None


class TestDuplicateAddSemantics:
    """Re-adding an existing node id is an error (documented on
    GraphUpdate), uniformly across the plain and indexed apply paths."""

    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    def test_readding_existing_id_errors(self, indexed):
        g = base_graph()
        if indexed:
            attach_index(g)
        with pytest.raises(GraphError, match="already exists"):
            apply_update_indexed(g, GraphUpdate(nodes=[("a", "L", {"x": 5})]))
        assert g.node("a").get("x") == 1, "the existing node must be untouched"

    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    def test_replace_via_same_batch_delete(self, indexed):
        g = base_graph()
        if indexed:
            attach_index(g)
        apply_update_indexed(g, GraphUpdate(del_nodes=["a"], nodes=[("a", "N", {"x": 5})]))
        assert g.node("a").label == "N"
        assert g.node("a").get("x") == 5
        assert g.num_edges == 0  # the old a's edges cascaded away
        if indexed:
            index = get_index(g)
            assert index is not None
            assert index.snapshot() == build_indexes(g).snapshot()

    def test_attribute_overwrite_is_allowed(self):
        """Attribute writes overwrite (unlike node adds): documented
        contrast enforced here."""
        g = base_graph()
        apply_update_indexed(g, GraphUpdate(attrs=[("a", "x", 42)]))
        assert g.node("a").get("x") == 42

    def test_edge_readd_is_idempotent(self):
        g = base_graph()
        v = g.version
        apply_update_indexed(g, GraphUpdate(edges=[("a", "r", "b")]))
        assert g.num_edges == 1
        assert g.version == v  # no effective mutation
