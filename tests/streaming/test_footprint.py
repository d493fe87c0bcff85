"""The batch footprint: Σ's read set, what a batch changed of it, and
the ledger deltas it drives.

The ledger pins only added nodes, nodes where an attribute Σ reads
changed, and added edges whose label Σ reads; it rechecks only entries
meeting a deleted node, an attribute-changed node, or both endpoints of
a deleted edge.  The per-batch oracle below checks every batch's delta
against from-scratch validations before and after it; the targeted
cases pin down what the footprint leaves out."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps import FALSE, GED, ConstantLiteral, IdLiteral, VariableLiteral
from repro.graph import GraphBuilder
from repro.graph.update import GraphUpdate
from repro.indexing import attach_index
from repro.patterns import Pattern
from repro.reasoning import find_violations
from repro.streaming import ViolationLedger
from repro.streaming.delta import batch_footprint, sigma_reads
from tests.streaming.shapes import STREAMS


def keyed(sigma, graph):
    """The from-scratch violation set as {(Σ position, match): failed}."""
    position = {id(ged): index for index, ged in enumerate(sigma)}
    return {
        (position[id(v.ged)], v.match): v.failed for v in find_violations(graph, sigma)
    }


def delta_keys(ledger, violations):
    return {(ledger.position_of(v.ged), v.match) for v in violations}


@pytest.fixture
def kernel_runs(monkeypatch):
    """The delta kernel's executor runs, recorded through the name the
    kernel calls."""
    import repro.streaming.delta as delta

    runs = []
    run = delta.execute_over_pools

    def recording(pattern, graph, candidates, *args, **kwargs):
        runs.append(pattern)
        return run(pattern, graph, candidates, *args, **kwargs)

    monkeypatch.setattr(delta, "execute_over_pools", recording)
    return runs


class TestPerBatchOracle:
    @STREAMS
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    def test_each_delta_equals_the_scan_difference(self, make_stream, seed, indexed):
        """Per batch: introduced = keys after − keys before, retired =
        keys before − keys after, updated = keys on both sides whose
        failed set changed."""
        stream = make_stream(
            n_nodes=random.Random(seed).randint(20, 60),
            batches=8,
            batch_size=8,
            rng=seed,
        )
        graph = stream.base.copy()
        if indexed:
            attach_index(graph)
        ledger = ViolationLedger(graph, stream.sigma)
        ledger.bootstrap()
        before = keyed(stream.sigma, graph)
        for update in stream.updates:
            held = {(ledger.position_of(v.ged), v.match) for v in ledger.violations()}
            assert held == set(before)
            delta = ledger.refresh(update)
            after = keyed(stream.sigma, graph)
            assert delta_keys(ledger, delta.introduced) == set(after) - held
            assert delta_keys(ledger, delta.retired) == set(before) - set(after)
            assert delta_keys(ledger, delta.updated) == {
                key for key in set(before) & set(after) if before[key] != after[key]
            }
            for violation in delta.introduced + delta.updated:
                key = (ledger.position_of(violation.ged), violation.match)
                assert violation.failed == after[key]
            before = after


class TestSigmaReads:
    def test_literals_and_edge_labels(self):
        rule = GED(
            Pattern({"x": "a", "y": "b"}, [("x", "r", "y"), ("y", "s", "x")]),
            [ConstantLiteral("x", "A", 1), IdLiteral("x", "y")],
            [VariableLiteral("x", "B", "y", "C")],
        )
        forbid = GED(Pattern({"z": "c"}), [ConstantLiteral("z", "D", 0)], [FALSE])
        reads = sigma_reads([rule, forbid])
        assert reads.attrs == {"A", "B", "C", "D"}
        assert reads.labels == {"r", "s"}
        assert not reads.reads_attr("E") and not reads.reads_label("t")

    def test_wildcard_edge_makes_every_label_count(self):
        rule = GED(Pattern({"x": "a", "y": "_"}, [("x", "_", "y")]), [], [FALSE])
        reads = sigma_reads([rule])
        assert reads.labels is None
        assert reads.reads_label("anything")
        assert reads.attrs == frozenset()

    def test_unknown_literal_type_makes_every_attribute_count(self):
        class Opaque:
            variables = frozenset()

        rule = GED(Pattern({"x": "a"}), [], [FALSE])
        rule.Y = frozenset({Opaque()})
        assert sigma_reads([rule]).attrs is None


class TestFootprint:
    def test_typed_by_change(self):
        reads = sigma_reads(
            [GED(Pattern({"x": "a", "y": "a"}, [("x", "r", "y")]), [],
                 [VariableLiteral("x", "A", "y", "A")])]
        )
        footprint = batch_footprint(
            GraphUpdate(
                nodes=[("n", "a", {"B": 1})],
                edges=[("n", "r", "m"), ("n", "q", "m")],
                attrs=[("k", "A", 1), ("j", "B", 2)],
                del_nodes=["d"],
                del_edges=[("p", "r", "o"), ("p", "q", "o")],
                del_attrs=[("h", "A"), ("g", "B")],
            ),
            reads,
        )
        assert footprint.node_pins == {"n", "k", "h"}
        assert footprint.edge_pins == [("n", "r", "m")]
        assert footprint.recheck_nodes == {"d", "k", "h"}
        assert footprint.recheck_edges == [("p", "r", "o")]


def score_rule():
    """x -buys-> y with equal scores."""
    return GED(
        Pattern({"x": "item", "y": "item"}, [("x", "buys", "y")]),
        [],
        [VariableLiteral("x", "score", "y", "score")],
        name="score",
    )


def score_graph():
    """Three score violations: a→b, a→c, d→b."""
    return (
        GraphBuilder()
        .node("a", "item", score=1)
        .node("b", "item", score=2)
        .node("c", "item", score=3)
        .node("d", "item", score=4)
        .edge("a", "buys", "b")
        .edge("a", "buys", "c")
        .edge("d", "buys", "b")
        .build()
    )


class TestTargetedCases:
    def test_unread_attribute_write_runs_and_rechecks_nothing(self, kernel_runs):
        ledger = ViolationLedger(score_graph(), [score_rule()])
        assert len(ledger.bootstrap()) == 3
        delta = ledger.refresh(GraphUpdate(attrs=[("a", "color", "red")]))
        assert kernel_runs == []
        assert delta.rechecked == 0 and delta.is_empty()
        assert delta.touched == 1

    def test_unused_edge_label_runs_nothing(self, kernel_runs):
        ledger = ViolationLedger(score_graph(), [score_rule()])
        ledger.bootstrap()
        delta = ledger.refresh(GraphUpdate(edges=[("a", "knows", "d")]))
        assert kernel_runs == []
        assert delta.rechecked == 0 and delta.is_empty()

    def test_read_attribute_write_rechecks_and_pins(self, kernel_runs):
        ledger = ViolationLedger(score_graph(), [score_rule()])
        ledger.bootstrap()
        delta = ledger.refresh(GraphUpdate(attrs=[("c", "score", 1)]))
        assert delta.rechecked == 1  # a→c, the one entry meeting c
        assert [v.match for v in delta.retired] == [(("x", "a"), ("y", "c"))]
        assert 0 < len(kernel_runs) <= 2

    def test_deleting_a_y_attribute_introduces_the_violation(self):
        rule = GED(Pattern({"x": "item"}), [], [ConstantLiteral("x", "score", 1)])
        graph = GraphBuilder().node("i", "item", score=1).build()
        ledger = ViolationLedger(graph, [rule])
        assert ledger.bootstrap() == []
        delta = ledger.refresh(GraphUpdate(del_attrs=[("i", "score")]))
        assert [v.match for v in delta.introduced] == [(("x", "i"),)]
        assert delta.introduced[0].failed == (ConstantLiteral("x", "score", 1),)

    def test_deleted_edge_rechecks_entries_meeting_both_endpoints(self):
        ledger = ViolationLedger(score_graph(), [score_rule()])
        ledger.bootstrap()
        delta = ledger.refresh(GraphUpdate(del_edges=[("a", "buys", "b")]))
        # a→c meets a and d→b meets b, but only a→b meets both.
        assert delta.rechecked == 1
        assert [v.match for v in delta.retired] == [(("x", "a"), ("y", "b"))]
        assert len(ledger) == 2

    def test_deleted_edge_of_an_unread_label_rechecks_nothing(self):
        graph = score_graph()
        graph.add_edge("a", "knows", "b")
        ledger = ViolationLedger(graph, [score_rule()])
        ledger.bootstrap()
        delta = ledger.refresh(GraphUpdate(del_edges=[("a", "knows", "b")]))
        assert delta.rechecked == 0 and delta.is_empty()

    def test_wildcard_pattern_edge_makes_every_label_count(self, kernel_runs):
        rule = GED(
            Pattern({"x": "item", "y": "item"}, [("x", "_", "y")]),
            [],
            [VariableLiteral("x", "score", "y", "score")],
        )
        graph = (
            GraphBuilder().node("a", "item", score=1).node("b", "item", score=2).build()
        )
        ledger = ViolationLedger(graph, [rule])
        assert ledger.bootstrap() == []
        added = ledger.refresh(GraphUpdate(edges=[("a", "zzz", "b")]))
        assert [v.match for v in added.introduced] == [(("x", "a"), ("y", "b"))]
        assert len(kernel_runs) == 1
        removed = ledger.refresh(GraphUpdate(del_edges=[("a", "zzz", "b")]))
        assert removed.rechecked == 1
        assert removed.retired == added.introduced
        assert ledger.clean

    def test_added_edge_is_pinned_at_matching_pattern_edges_only(self, kernel_runs):
        """An added ``buys`` edge runs the executor once for the one
        pattern edge of that label, not once per endpoint variable."""
        ledger = ViolationLedger(score_graph(), [score_rule()])
        ledger.bootstrap()
        delta = ledger.refresh(GraphUpdate(edges=[("c", "buys", "d")]))
        assert len(kernel_runs) == 1
        assert [v.match for v in delta.introduced] == [(("x", "c"), ("y", "d"))]
        assert delta.rechecked == 0

    def test_self_loop_pattern_edge_takes_loop_pins_only(self, kernel_runs):
        rule = GED(
            Pattern({"u": "user"}, [("u", "rates", "u")]),
            [],
            [ConstantLiteral("u", "score", 1)],
        )
        graph = GraphBuilder().node("p", "user").node("q", "user").build()
        ledger = ViolationLedger(graph, [rule])
        ledger.bootstrap()
        assert ledger.refresh(GraphUpdate(edges=[("p", "rates", "q")])).is_empty()
        assert kernel_runs == []
        delta = ledger.refresh(GraphUpdate(edges=[("p", "rates", "p")]))
        assert [v.match for v in delta.introduced] == [(("u", "p"),)]
        assert len(kernel_runs) == 1
