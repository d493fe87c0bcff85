"""Validation tests: Theorem 6 semantics, violation witnesses, bounded case."""

import pytest

from repro import paper
from repro.deps import FALSE, ConstantLiteral, GED, IdLiteral, VariableLiteral
from repro.errors import DependencyError
from repro.graph import GraphBuilder
from repro.indexing import attach_index, detach_index
from repro.matching import find_homomorphisms
from repro.patterns import Pattern
from repro.reasoning import (
    find_violations,
    literal_holds,
    satisfies_ged,
    validate_bounded,
    validates,
)
from repro.reasoning.validation import sigma_groups, sigma_scan, x_literal_restrictions
from tests.streaming.shapes import shape_churn_stream, shape_rule_set


def knowledge_graph():
    """A small KB with the Example 1 inconsistencies planted."""
    return (
        GraphBuilder()
        # Ghetto Blaster credited to a psychologist (violates ϕ1).
        .node("game", "product", type="video game", title="Ghetto Blaster")
        .node("tony", "person", type="psychologist", name="Tony Gibson")
        .edge("tony", "create", "game")
        # Finland with two differently-named capitals (violates ϕ2).
        .node("fin", "country", name="Finland")
        .node("hel", "city", name="Helsinki")
        .node("spb", "city", name="Saint Petersburg")
        .edge("fin", "capital", "hel")
        .edge("fin", "capital", "spb")
        # Birds can fly; moa is a bird but flightless (violates ϕ3).
        .node("bird", "class", can_fly="yes")
        .node("moa", "species", can_fly="no")
        .edge("moa", "is_a", "bird")
        # Philip both child and parent of William (violates ϕ4).
        .node("philip", "person", name="Philip Sclater")
        .node("william", "person", name="William Sclater")
        .edge("philip", "child", "william")
        .edge("philip", "parent", "william")
        .build()
    )


class TestLiteralSemantics:
    def test_constant_literal_requires_existence(self):
        g = GraphBuilder().node("n", "a").build()
        assert not literal_holds(g, ConstantLiteral("x", "A", 1), {"x": "n"})
        g2 = GraphBuilder().node("n", "a", A=1).build()
        assert literal_holds(g2, ConstantLiteral("x", "A", 1), {"x": "n"})
        assert not literal_holds(g2, ConstantLiteral("x", "A", 2), {"x": "n"})

    def test_variable_literal_requires_both(self):
        g = GraphBuilder().node("n", "a", A=1).node("m", "a").build()
        lit = VariableLiteral("x", "A", "y", "A")
        assert not literal_holds(g, lit, {"x": "n", "y": "m"})
        g.set_attribute("m", "A", 1)
        assert literal_holds(g, lit, {"x": "n", "y": "m"})

    def test_id_literal(self):
        g = GraphBuilder().node("n", "a").node("m", "a").build()
        assert literal_holds(g, IdLiteral("x", "y"), {"x": "n", "y": "n"})
        assert not literal_holds(g, IdLiteral("x", "y"), {"x": "n", "y": "m"})

    def test_false_never_holds(self):
        g = GraphBuilder().node("n", "a").build()
        assert not literal_holds(g, FALSE, {})


class TestExample1Violations:
    def test_phi1_catches_ghetto_blaster(self):
        violations = find_violations(knowledge_graph(), [paper.phi1()])
        assert len(violations) == 1
        assert violations[0].assignment["x"] == "game"
        assert "programmer" in str(violations[0])

    def test_phi2_catches_two_capitals(self):
        violations = find_violations(knowledge_graph(), [paper.phi2()])
        # Matches (hel, spb) and (spb, hel) both violate.
        assert {v.assignment["y"] for v in violations} == {"hel", "spb"}

    def test_phi3_catches_moa(self):
        violations = find_violations(knowledge_graph(), [paper.phi3()])
        assert any(v.assignment["y"] == "moa" for v in violations)

    def test_phi4_catches_child_and_parent(self):
        violations = find_violations(knowledge_graph(), [paper.phi4()])
        assert len(violations) == 1
        assert violations[0].failed == (FALSE,)

    def test_clean_graph_validates(self):
        g = (
            GraphBuilder()
            .node("game", "product", type="video game")
            .node("dev", "person", type="programmer")
            .edge("dev", "create", "game")
            .build()
        )
        sigma = [paper.phi1(), paper.phi2(), paper.phi3(), paper.phi4()]
        assert validates(g, sigma)

    def test_unsatisfied_x_is_not_a_violation(self):
        """ϕ2's pattern matches (y=z=hel) but those matches satisfy Y."""
        g = (
            GraphBuilder()
            .node("fin", "country")
            .node("hel", "city", name="Helsinki")
            .edge("fin", "capital", "hel")
            .build()
        )
        assert satisfies_ged(g, paper.phi2())


class TestGKeyValidation:
    def albums(self, same_artist_node: bool):
        b = (
            GraphBuilder()
            .node("a1", "album", title="Bleach", release=1989)
            .node("a2", "album", title="Bleach", release=1989)
        )
        if same_artist_node:
            b.node("art", "artist", name="Nirvana")
            b.edge("a1", "primary_artist", "art").edge("a2", "primary_artist", "art")
        else:
            b.node("art1", "artist", name="Nirvana")
            b.node("art2", "artist", name="Nirvana UK")
            b.edge("a1", "primary_artist", "art1").edge("a2", "primary_artist", "art2")
        return b.build()

    def test_psi1_fires_on_duplicates_with_shared_artist(self):
        g = self.albums(same_artist_node=True)
        violations = find_violations(g, [paper.psi1()])
        assert violations, "two Bleach albums by the same artist node must merge"

    def test_psi1_silent_for_distinct_artists(self):
        g = self.albums(same_artist_node=False)
        assert validates(g, [paper.psi1()])

    def test_psi2_fires_on_same_title_and_release(self):
        g = self.albums(same_artist_node=False)
        assert not validates(g, [paper.psi2()])


class TestViolationAPI:
    def test_limit(self):
        violations = find_violations(knowledge_graph(), [paper.phi2()], limit=1)
        assert len(violations) == 1

    @pytest.mark.parametrize("limit", [0, -3])
    def test_non_positive_limit_rejected(self, limit):
        """No list of at most ``limit < 1`` violations can report a dirty
        graph as dirty, so such a limit is an argument error."""
        with pytest.raises(ValueError, match="limit must be >= 1"):
            find_violations(knowledge_graph(), [paper.phi2()], limit=limit)

    def test_violation_reports_failed_literals(self):
        v = find_violations(knowledge_graph(), [paper.phi1()])[0]
        assert v.failed == (ConstantLiteral("y", "type", "programmer"),)
        assert v.ged.name == "phi1"

    def test_multiple_geds_aggregate(self):
        sigma = [paper.phi1(), paper.phi2(), paper.phi3(), paper.phi4()]
        violations = find_violations(knowledge_graph(), sigma)
        assert {v.ged.name for v in violations} == {"phi1", "phi2", "phi3", "phi4"}


class TestSigmaScan:
    """The grouped full Σ scan: rules sharing a pattern and an
    X-restriction are enumerated once, and each keeps its solo result."""

    def test_duplicate_rules_keep_solo_semantics(self):
        g = knowledge_graph()
        variant = GED(paper.q2(), [], [IdLiteral("y", "z")], name="phi2-id")
        sigma = [paper.phi2(), paper.phi2(), variant]
        assert [members for _, _, members in sigma_groups(g, sigma)] == [[0, 1, 2]]
        solo = [find_violations(g, [ged]) for ged in sigma]
        assert all(solo)
        assert find_violations(g, sigma) == solo[0] + solo[1] + solo[2]

    @pytest.mark.parametrize("indexed", [False, True])
    def test_counts_and_buckets_are_each_rules_solo_run(self, indexed):
        """With an index the shapes set's X-literal rules get their own
        restriction, so one pattern's rules report different counts."""
        graph = shape_churn_stream().base
        sigma = shape_rule_set()
        if indexed:
            attach_index(graph)
        try:
            buckets, counts, _ = sigma_scan(graph, sigma)
            for position, ged in enumerate(sigma):
                restrict = x_literal_restrictions(graph, ged)
                stream = list(find_homomorphisms(ged.pattern, graph, restrict=restrict))
                assert counts[position] == len(stream)
                assert buckets[position] == find_violations(graph, [ged])
            assert any(counts) and any(buckets)
        finally:
            detach_index(graph)


class TestBoundedFacade:
    def test_bounded_accepts_small_patterns(self):
        g = knowledge_graph()
        violations = validate_bounded(g, [paper.phi1()], k=4)
        assert len(violations) == 1

    def test_bounded_rejects_large_patterns(self):
        with pytest.raises(DependencyError):
            validate_bounded(knowledge_graph(), [paper.phi5(k=4)], k=4)

    def test_bounded_satisfiability_and_implication(self):
        from repro.reasoning import implies_bounded, satisfiable_bounded

        q = Pattern({"x": "a"})
        ged = GED(q, [], [ConstantLiteral("x", "A", 1)])
        assert satisfiable_bounded([ged], k=2)
        assert implies_bounded([ged], ged, k=2)
