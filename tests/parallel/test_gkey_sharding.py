"""Sharded validation over GKey (pattern + copy) dependencies.

GKey patterns are the stress case for sharding: the doubled pattern has
twice the variables, matches may bind the original and the copy to the
same nodes (homomorphism semantics), and the violated literal is an id
literal.  The shards must still partition the match set exactly.
"""

from repro.deps.ged import make_gkey
from repro.engine import shutdown_pools
from repro.graph.graph import Graph
from repro.parallel import parallel_find_violations
from repro.patterns.pattern import Pattern
from repro.reasoning.validation import find_violations


def duplicate_albums() -> Graph:
    g = Graph()
    for node_id, title in [("a1", "Bleach"), ("a2", "Bleach"), ("a3", "Nevermind")]:
        g.add_node(node_id, "album", {"title": title})
    return g


def title_key():
    return make_gkey(
        Pattern({"x": "album"}), "x", value_attrs={"x": ["title"]}, name="by-title"
    )


class TestGkeySharding:
    def test_sharded_equals_reference(self):
        g = duplicate_albums()
        rules = [title_key()]
        reference = {v.match for v in find_violations(g, rules)}
        assert reference  # a1/a2 share the title but are distinct nodes
        for workers in (1, 2, 3, 5):
            report = parallel_find_violations(g, rules, workers=workers, backend="engine")
            assert {v.match for v in report.violations} == reference
        shutdown_pools()

    def test_clean_after_dedup(self):
        g = duplicate_albums()
        from repro.quality.entity_resolution import resolve_entities

        result = resolve_entities(g, [title_key()])
        assert result.consistent
        report = parallel_find_violations(result.resolved_graph, [title_key()], workers=3)
        assert report.valid
