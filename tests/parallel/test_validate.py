"""Tests for sharded/parallel validation equivalence across backends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps.ged import GED
from repro.deps.literals import ConstantLiteral, VariableLiteral
from repro.engine import shutdown_pools
from repro.graph.generators import random_labeled_graph
from repro.graph.graph import Graph
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
            parallel_find_violations(g, rules, workers=w, backend="engine")
            for w in (1, 2, 3, 8)
        ]
        shutdown_pools()
        matches = [{v.match for v in r.violations} for r in reports]
        assert all(m == matches[0] for m in matches)

    def test_serial_reports_the_one_worker_it_uses(self):
        report = parallel_find_violations(dirty_graph(), [capital_rule()], workers=4)
        assert report.workers == 1

    def test_stats_account_for_work(self):
        g = dirty_graph()
        report = parallel_find_violations(g, [capital_rule()], workers=2)
        assert report.total_matches() > 0
        assert sum(s.violations for s in report.stats) == len(report.violations)
        assert 0.0 < report.balance() <= 1.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            parallel_find_violations(dirty_graph(), [capital_rule()], backend="gpu")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_removed_backends_rejected(self, backend):
        with pytest.raises(ValueError, match="'serial', 'engine', 'fragment'"):
            parallel_find_violations(dirty_graph(), [capital_rule()], backend=backend)

    def test_empty_sigma(self):
        report = parallel_find_violations(dirty_graph(), [], workers=4)
        assert report.valid
        assert report.stats == []


class TestConcurrentBackends:
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
        for backend in ("serial", "engine", "fragment"):
            report = parallel_find_violations(g, rules, workers=3, backend=backend)
            assert {v.match for v in report.violations} == reference, backend
        shutdown_pools()
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

    def test_serial_sigma_batch_reads_stats_off_the_scanned_pools(self):
        """The serial batch reads its ShardStats pool sizes off the
        candidate pools its Σ scan ran on, and the stats equal the
        pivot pools the sharded path would plan."""
        g = dirty_graph()
        absent = GED(
            Pattern({"x": "planet", "y": "city"}, [("x", "capital", "y")]),
            [],
            [VariableLiteral("x", "name", "y", "name")],
            name="absent",
        )
        rules = [capital_rule(), absent]
        report = parallel_find_violations(g, rules, workers=1, backend="serial")
        assert report.violations == find_violations(g, rules)
        assert [s.ged_name for s in report.stats] == ["one-capital"]  # "absent" cannot match
        _, pool = plan_pivot(capital_rule().pattern, g)
        assert report.stats[0].candidates == len(pool)
