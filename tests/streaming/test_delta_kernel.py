"""The delta kernel and the ledger: on small hand-built updates, a
violation an update introduces is found through the touched nodes and
one it fixes is retired; on churn batches, the kernel reports exactly
the full scan's violations that meet the batch, in at most one
executor run per (Σ group, pattern variable) plus one per (Σ group,
pattern edge) with edge pins."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import paper
from repro.deps import ConstantLiteral, GED, VariableLiteral
from repro.graph import GraphBuilder, random_labeled_graph
from repro.graph.update import GraphUpdate
from repro.indexing import attach_index, get_index
from repro.indexing.maintenance import apply_update_indexed
from repro.indexing.pruning import CandidatePruner
from repro.patterns import Pattern
from repro.patterns.labels import WILDCARD
from repro.reasoning import find_violations
from repro.reasoning.validation import sigma_groups
from repro.streaming import ViolationLedger, delta_violations
from repro.streaming.delta import batch_footprint, sigma_reads
from tests.streaming.shapes import STREAMS, shape_churn_stream


def capital_rule():
    return paper.phi2()


def one_capital_graph():
    return (
        GraphBuilder()
        .node("fin", "country")
        .node("hel", "city", name="Helsinki")
        .edge("fin", "capital", "hel")
        .build()
    )


def found(graph, sigma, update):
    """The matches ``delta_violations`` reports for an applied update."""
    return {v.match for _, v in delta_violations(graph, sigma, update.touched_nodes())}


class TestGraphUpdate:
    def test_touched_nodes(self):
        update = GraphUpdate(
            nodes=[("n", "a", {})],
            edges=[("n", "r", "m")],
            attrs=[("k", "A", 1)],
        )
        assert update.touched_nodes() == {"n", "m", "k"}

    def test_ledger_applies_the_batch(self):
        g = GraphBuilder().node("m", "a").build()
        ledger = ViolationLedger(g, [])
        ledger.bootstrap()
        delta = ledger.refresh(
            GraphUpdate(
                nodes=[("n", "b", {"A": 1})],
                edges=[("n", "r", "m")],
                attrs=[("m", "B", 2)],
            )
        )
        assert g.has_node("n") and g.has_edge("n", "r", "m")
        assert g.node("m").get("B") == 2
        assert delta.touched == 2


class TestDeltaViolations:
    def test_new_violation_detected(self):
        g = one_capital_graph()
        assert not find_violations(g, [capital_rule()])
        update = GraphUpdate(
            nodes=[("spb", "city", {"name": "Saint Petersburg"})],
            edges=[("fin", "capital", "spb")],
        )
        apply_update_indexed(g, update)
        full = find_violations(g, [capital_rule()])
        assert full
        assert found(g, [capital_rule()], update) == {v.match for v in full}

    def test_untouched_matches_skipped(self):
        """An update far from the rule's matches reports nothing."""
        g = (
            GraphBuilder()
            .node("fin", "country")
            .node("hel", "city", name="A")
            .node("spb", "city", name="B")
            .edge("fin", "capital", "hel")
            .edge("fin", "capital", "spb")
            .build()
        )
        assert find_violations(g, [capital_rule()])
        update = GraphUpdate(nodes=[("lonely", "island", {})])
        apply_update_indexed(g, update)
        assert delta_violations(g, [capital_rule()], update.touched_nodes()) == []

    def test_attribute_write_breaks_a_rule(self):
        q = Pattern({"x": "item"})
        rule = GED(q, [ConstantLiteral("x", "state", "on")],
                   [ConstantLiteral("x", "power", 1)])
        g = GraphBuilder().node("i", "item", state="off", power=0).build()
        assert not find_violations(g, [rule])
        update = GraphUpdate(attrs=[("i", "state", "on")])
        apply_update_indexed(g, update)
        assert len(delta_violations(g, [rule], update.touched_nodes())) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_delta_equals_full_on_touched(self, seed):
        """Post-update violations touching the update = the kernel's
        result; violations avoiding it existed before (completeness of
        the delta argument)."""
        rng = random.Random(seed)
        g = random_labeled_graph(
            rng.randint(2, 5), 0.4, ["a", "b"], ["r"], rng=seed,
            attribute_names=["A"], attribute_values=[1, 2],
        )
        q = Pattern({"x": "a", "y": "b"}, [("x", "r", "y")])
        sigma = [GED(q, [], [VariableLiteral("x", "A", "y", "A")])]
        before = {v.match for v in find_violations(g, sigma)}
        new_id = "fresh"
        target = rng.choice(g.node_ids)
        update = GraphUpdate(
            nodes=[(new_id, rng.choice(["a", "b"]), {"A": rng.choice([1, 2])})],
            edges=[(new_id, "r", target)],
        )
        apply_update_indexed(g, update)
        after = {v.match for v in find_violations(g, sigma)}
        touched = update.touched_nodes()
        delta = found(g, sigma, update)
        # Completeness: every genuinely new violation is found.
        assert (after - before) <= delta
        # Soundness: everything reported is a real post-update violation.
        assert delta <= after
        # Sharpness: reported matches all touch the update.
        for match in delta:
            assert any(node in touched for _, node in match)


class TestLedgerLifecycle:
    def test_break_noop_fix(self):
        g = (
            GraphBuilder()
            .node("fin", "country")
            .node("hel", "city", name="A")
            .edge("fin", "capital", "hel")
            .build()
        )
        ledger = ViolationLedger(g, [capital_rule()])
        assert ledger.bootstrap() == []
        # Break it.
        broken = ledger.refresh(
            GraphUpdate(nodes=[("spb", "city", {"name": "B"})],
                        edges=[("fin", "capital", "spb")])
        )
        assert broken.introduced and not broken.retired
        # A no-op update changes nothing.
        assert ledger.refresh(GraphUpdate()).is_empty()
        assert set(ledger.violations()) == set(broken.introduced)
        # Fix it: renaming retires the stale violations.
        fixed = ledger.refresh(GraphUpdate(attrs=[("spb", "name", "A")]))
        assert fixed.introduced == []
        assert set(fixed.retired) == set(broken.introduced)
        assert ledger.clean


class TestPerBatchOracle:
    @STREAMS
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    def test_kernel_equals_full_scan_on_the_touched_set(self, make_stream, seed, indexed):
        """Over multi-op churn batches (adds, deletions, attribute
        writes), the kernel reports exactly the post-batch violations
        whose match meets a live touched node, each (position, match)
        once."""
        stream = make_stream(
            n_nodes=random.Random(seed).randint(20, 60),
            batches=6,
            batch_size=8,
            rng=seed,
        )
        graph = stream.base.copy()
        if indexed:
            attach_index(graph)
        position = {id(ged): index for index, ged in enumerate(stream.sigma)}
        for update in stream.updates:
            apply_update_indexed(graph, update)
            live = {node for node in update.touched_nodes() if graph.has_node(node)}
            reported = delta_violations(graph, stream.sigma, update.touched_nodes())
            keys = [(index, violation.match) for index, violation in reported]
            assert len(keys) == len(set(keys))
            expected = {
                (position[id(v.ged)], v.match, v.failed)
                for v in find_violations(graph, stream.sigma)
                if any(node in live for _, node in v.match)
            }
            assert {(index, v.match, v.failed) for index, v in reported} == expected

    @STREAMS
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    def test_footprint_pins_find_every_violation_through_them(
        self, make_stream, seed, indexed
    ):
        """With a batch's footprint, the kernel reports every post-batch
        violation whose match meets a node pin or maps a pattern edge
        onto an edge pin, and nothing that is not a violation."""
        stream = make_stream(
            n_nodes=random.Random(seed).randint(20, 60),
            batches=6,
            batch_size=8,
            rng=seed,
        )
        graph = stream.base.copy()
        if indexed:
            attach_index(graph)
        reads = sigma_reads(stream.sigma)
        position = {id(ged): index for index, ged in enumerate(stream.sigma)}
        for update in stream.updates:
            footprint = batch_footprint(update, reads)
            apply_update_indexed(graph, update)
            reported = delta_violations(
                graph, stream.sigma, footprint.node_pins, footprint.edge_pins
            )
            keys = [(index, violation.match) for index, violation in reported]
            assert len(keys) == len(set(keys))
            full = {
                (position[id(v.ged)], v.match, v.failed): v
                for v in find_violations(graph, stream.sigma)
            }
            found = {(index, v.match, v.failed) for index, v in reported}
            assert found <= set(full)

            def through_pins(violation):
                image = dict(violation.match)
                if any(node in footprint.node_pins for node in image.values()):
                    return True
                return any(
                    (image[x], image[y]) == (source, target)
                    and label in (WILDCARD, edge_label)
                    for x, label, y in violation.ged.pattern.edges
                    for source, edge_label, target in footprint.edge_pins
                )

            assert {key for key, v in full.items() if through_pins(v)} <= found


class TestKernelWorkBound:
    """The kernel runs the executor once per (Σ group, variable) with a
    non-empty pin set, plus once per (Σ group, pattern edge) with edge
    pins of a matching label, whatever the number of touched nodes or
    added edges.  Counted through
    ``repro.streaming.delta.execute_over_pools``, the name the kernel
    calls and the traced serve benchmark wraps."""

    @staticmethod
    def record_runs(monkeypatch):
        import repro.streaming.delta as delta

        runs = []
        run = delta.execute_over_pools

        def recording(pattern, graph, candidates, *args, **kwargs):
            runs.append((pattern, dict(candidates)))
            return run(pattern, graph, candidates, *args, **kwargs)

        monkeypatch.setattr(delta, "execute_over_pools", recording)
        return runs

    @staticmethod
    def shapes_graph(indexed):
        stream = shape_churn_stream(n_nodes=200, batches=0, rng=5)
        graph = stream.base.copy()
        if indexed:
            attach_index(graph)
        return graph, stream.sigma, set(sorted(graph.node_ids)[::5])

    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    def test_at_most_one_run_per_group_variable(self, monkeypatch, indexed):
        graph, sigma, touched = self.shapes_graph(indexed)
        assert len(touched) >= 20
        runs = self.record_runs(monkeypatch)
        assert delta_violations(graph, sigma, touched)
        bound = sum(len(pattern.variables) for pattern, _, _ in sigma_groups(graph, sigma))
        assert 0 < len(runs) <= bound

    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    def test_at_most_one_run_per_group_pattern_edge(self, monkeypatch, indexed):
        graph, sigma, touched = self.shapes_graph(indexed)
        edge_pins = sorted(graph.edges)[::7]
        assert len(edge_pins) >= 20
        groups = sigma_groups(graph, sigma)
        runs = self.record_runs(monkeypatch)
        assert delta_violations(graph, sigma, (), edge_pins)
        assert 0 < len(runs) <= sum(len(pattern.edges) for pattern, _, _ in groups)
        runs.clear()
        assert delta_violations(graph, sigma, touched, edge_pins)
        bound = sum(
            len(pattern.variables) + len(pattern.edges) for pattern, _, _ in groups
        )
        assert 0 < len(runs) <= bound

    def test_index_rejected_nodes_leave_the_pin_pool(self, monkeypatch):
        graph, sigma, touched = self.shapes_graph(indexed=True)
        pruner = CandidatePruner(graph, get_index(graph))
        runs = self.record_runs(monkeypatch)
        delta_violations(graph, sigma, touched)
        rejected = 0
        for pattern, candidates in runs:
            # The pin pool is the one pool drawn from the touched set;
            # every other variable keeps its label row (narrowed by an
            # X-restriction) over the whole graph.
            (variable,) = [v for v, pool in candidates.items() if set(pool) <= touched]
            label = pattern.label_of(variable)
            row = graph.label_row(None if label == WILDCARD else label)
            for node_id in touched & set(row):
                if not pruner.admit(pattern, variable, [node_id]):
                    rejected += 1
                    assert node_id not in candidates[variable]
        assert rejected

    def test_requirements_derived_once_per_group_variable(self, monkeypatch):
        """The pruner derives a variable's signature requirements once
        per pin set, not once per touched node it probes."""
        import repro.indexing.pruning as pruning

        graph, sigma, touched = self.shapes_graph(indexed=True)
        derived = []
        derive = pruning.pattern_requirements

        def counting(pattern, variable):
            derived.append((pattern, variable))
            return derive(pattern, variable)

        monkeypatch.setattr(pruning, "pattern_requirements", counting)
        runs = self.record_runs(monkeypatch)
        assert delta_violations(graph, sigma, touched)
        groups = list(sigma_groups(graph, sigma))
        assert 0 < len(derived) <= sum(len(pattern.variables) for pattern, _, _ in groups)
        assert len(runs) <= len(derived)
        for pattern, _, _ in groups:
            for variable in pattern.variables:
                assert derived.count((pattern, variable)) <= sum(
                    1 for other, _, _ in groups if other == pattern
                )
