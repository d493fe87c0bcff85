"""Ablation: incremental validation vs. full re-validation.

The "practical special cases" engineering claim: a violation
introduced by an update must touch the update's neighborhood, so
re-enumerating only matches through touched nodes is sound — and its
cost tracks the *update*, not the graph.  The incremental side is the
streaming delta kernel, :func:`repro.streaming.delta.delta_violations`.

The bench streams single-country updates into a growing capitals KB
and measures detection cost both ways.  The shape claim is the
crossover: full re-validation grows with |G| while the incremental
check stays flat, so the gap widens with graph size.
"""

import pytest

from repro.deps.ged import GED
from repro.deps.literals import VariableLiteral
from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate
from repro.indexing.maintenance import apply_update_indexed
from repro.patterns.pattern import Pattern
from repro.reasoning.validation import find_violations
from repro.streaming.delta import delta_violations

SIZES = [50, 200, 800]


def capital_rule() -> GED:
    q = Pattern(
        {"x": "country", "y": "city", "z": "city"},
        [("x", "capital", "y"), ("x", "capital", "z")],
    )
    return GED(q, [], [VariableLiteral("y", "name", "z", "name")], name="one-capital")


def base_graph(n: int) -> Graph:
    g = Graph()
    for i in range(n):
        g.add_node(f"c{i}", "country")
        g.add_node(f"k{i}", "city", {"name": f"cap{i}"})
        g.add_edge(f"c{i}", "capital", f"k{i}")
    return g


def dirty_update(n: int) -> GraphUpdate:
    """Add one country with two disagreeing capitals."""
    return GraphUpdate(
        nodes=[
            (f"c{n}", "country", {}),
            (f"k{n}a", "city", {"name": "A"}),
            (f"k{n}b", "city", {"name": "B"}),
        ],
        edges=[(f"c{n}", "capital", f"k{n}a"), (f"c{n}", "capital", f"k{n}b")],
    )


@pytest.mark.parametrize("n", SIZES)
def test_full_revalidation_after_update(benchmark, n):
    g = base_graph(n)
    apply_update_indexed(g, dirty_update(n))
    rules = [capital_rule()]

    violations = benchmark(lambda: find_violations(g, rules))
    assert violations
    benchmark.extra_info["graph_nodes"] = g.num_nodes


@pytest.mark.parametrize("n", SIZES)
def test_incremental_validation_after_update(benchmark, n):
    g = base_graph(n)
    update = dirty_update(n)
    apply_update_indexed(g, update)
    rules = [capital_rule()]
    touched = update.touched_nodes()

    violations = benchmark(lambda: delta_violations(g, rules, touched))
    assert violations
    benchmark.extra_info["graph_nodes"] = g.num_nodes
    benchmark.extra_info["touched"] = len(touched)


def test_shape_incremental_finds_same_new_violations():
    """Soundness across sizes: the incremental check reports exactly the
    violations the full scan attributes to the update."""
    rules = [capital_rule()]
    for n in SIZES:
        g = base_graph(n)
        before = {v.match for v in find_violations(g, rules)}
        update = dirty_update(n)
        apply_update_indexed(g, update)
        after = {v.match for v in find_violations(g, rules)}
        new_full = after - before
        new_incremental = {
            v.match for _, v in delta_violations(g, rules, update.touched_nodes())
        }
        assert new_full <= new_incremental  # complete for new violations
        assert new_incremental <= after  # sound: every report is real
