"""Tests for sharded/parallel validation equivalence across backends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps.ged import GED
from repro.deps.literals import ConstantLiteral, VariableLiteral
from repro.graph.generators import random_labeled_graph
from repro.graph.graph import Graph
from repro.matching.view import peek_view
from repro.parallel.partition import plan_pivot
from repro.parallel.validate import parallel_find_violations, parallel_validates
from repro.patterns.pattern import Pattern
from repro.reasoning.validation import find_violations, validates


def capital_rule() -> GED:
    q = Pattern(
        {"x": "country", "y": "city", "z": "city"},
        [("x", "capital", "y"), ("x", "capital", "z")],
    )
    return GED(q, [], [VariableLiteral("y", "name", "z", "name")], name="one-capital")


def dirty_graph() -> Graph:
    g = Graph()
    g.add_node("fin", "country")
    g.add_node("hel", "city", {"name": "Helsinki"})
    g.add_node("spb", "city", {"name": "Saint Petersburg"})
    g.add_edge("fin", "capital", "hel")
    g.add_edge("fin", "capital", "spb")
    g.add_node("nor", "country")
    g.add_node("osl", "city", {"name": "Oslo"})
    g.add_edge("nor", "capital", "osl")
    return g


class TestSerialSharding:
    def test_matches_reference_implementation(self):
        g = dirty_graph()
        rules = [capital_rule()]
        reference = find_violations(g, rules)
        report = parallel_find_violations(g, rules, workers=3, backend="serial")
        assert {v.match for v in report.violations} == {v.match for v in reference}

    def test_clean_graph(self):
        g = Graph()
        g.add_node("nor", "country")
        g.add_node("osl", "city", {"name": "Oslo"})
        g.add_edge("nor", "capital", "osl")
        assert parallel_validates(g, [capital_rule()], workers=4)

    def test_worker_count_does_not_change_result(self):
        g = dirty_graph()
        rules = [capital_rule()]
        reports = [
            parallel_find_violations(g, rules, workers=w, backend="serial")
            for w in (1, 2, 3, 8)
        ]
        matches = [{v.match for v in r.violations} for r in reports]
        assert all(m == matches[0] for m in matches)

    def test_stats_account_for_work(self):
        g = dirty_graph()
        report = parallel_find_violations(g, [capital_rule()], workers=2)
        assert report.total_matches() > 0
        assert sum(s.violations for s in report.stats) == len(report.violations)
        assert 0.0 < report.balance() <= 1.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            parallel_find_violations(dirty_graph(), [capital_rule()], backend="gpu")

    def test_empty_sigma(self):
        report = parallel_find_violations(dirty_graph(), [], workers=4)
        assert report.valid
        assert report.stats == []


class TestConcurrentBackends:
    def test_thread_backend_equals_serial(self):
        g = dirty_graph()
        rules = [capital_rule()]
        serial = parallel_find_violations(g, rules, workers=3, backend="serial")
        threaded = parallel_find_violations(g, rules, workers=3, backend="thread")
        assert [v.match for v in threaded.violations] == [
            v.match for v in serial.violations
        ]

    def test_process_backend_equals_serial(self):
        g = dirty_graph()
        rules = [capital_rule()]
        serial = parallel_find_violations(g, rules, workers=2, backend="serial")
        procs = parallel_find_violations(g, rules, workers=2, backend="process")
        assert [v.match for v in procs.violations] == [
            v.match for v in serial.violations
        ]

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs_all_backends_agree(self, seed):
        g = random_labeled_graph(
            8,
            0.3,
            node_labels=["country", "city"],
            edge_labels=["capital"],
            attribute_names=["name"],
            attribute_values=["n1", "n2"],
            rng=seed,
        )
        rules = [capital_rule()]
        reference = {v.match for v in find_violations(g, rules)}
        serial = parallel_find_violations(g, rules, workers=3, backend="serial")
        threaded = parallel_find_violations(g, rules, workers=3, backend="thread")
        assert {v.match for v in serial.violations} == reference
        assert {v.match for v in threaded.violations} == reference
        assert parallel_validates(g, rules, workers=3) == validates(g, rules)


class TestMultiRule:
    def test_multiple_rules_merge_sorted(self):
        g = dirty_graph()
        g.add_node("p", "person", {"type": "psychologist"})
        g.add_node("v", "product", {"type": "video game"})
        g.add_edge("p", "create", "v")
        creator = GED(
            Pattern({"x": "person", "y": "product"}, [("x", "create", "y")]),
            [ConstantLiteral("y", "type", "video game")],
            [ConstantLiteral("x", "type", "programmer")],
            name="creator",
        )
        rules = [capital_rule(), creator]
        report = parallel_find_violations(g, rules, workers=2)
        names = [v.ged.name for v in report.violations]
        assert names == sorted(names)
        assert {v.ged.name for v in report.violations} == {"one-capital", "creator"}

    def test_serial_sigma_batch_builds_no_graph_view(self):
        """The one-worker serial batch scans Σ in pool mode and reads
        its ShardStats pool sizes off the cached candidate pools: no
        graph view is built, and the stats equal the pivot pools the
        sharded path would plan."""
        g = dirty_graph()
        absent = GED(
            Pattern({"x": "planet", "y": "city"}, [("x", "capital", "y")]),
            [],
            [VariableLiteral("x", "name", "y", "name")],
            name="absent",
        )
        rules = [capital_rule(), absent]
        report = parallel_find_violations(g, rules, workers=1, backend="serial")
        assert peek_view(g) is None
        assert report.violations == find_violations(g, rules)
        assert [s.ged_name for s in report.stats] == ["one-capital"]  # "absent" cannot match
        _, pool = plan_pivot(capital_rule().pattern, g)
        assert report.stats[0].candidates == len(pool)
