"""Unit tests for the interned view / compiled plan layers.

Covers the pieces the differential suite treats as a black box: the
canonical interning and CSR structure of :class:`GraphView`, plan
caching and version-based invalidation, the explain rendering and CLI
subcommand, compiled-plan reuse inside engine workers, plan shipping in
snapshot broadcasts, the counting mode, and the pattern-program cache
the streaming delta kernel leans on.
"""

import pytest

from repro.engine import pool as engine_pool
from repro.engine.snapshot import snapshot_graph
from repro.engine.scheduler import plan_tasks
from repro.graph import GraphBuilder
from repro.indexing import attach_index, detach_index
from repro.matching import (
    compile_plan,
    count_matches,
    find_homomorphisms,
    get_view,
    seed_find_homomorphisms,
)
from repro.matching.plan import compile_sigma, program_cache_info
from repro.matching.view import build_view, peek_view
from repro.patterns import WILDCARD, Pattern
from repro.telemetry import metrics
from repro.workloads import bounded_rule_set, validation_workload


def diamond_graph():
    return (
        GraphBuilder()
        .node("d", "shop")
        .node("b", "user", score=1)
        .node("a", "user")
        .node("c", "item")
        .edge("a", "buys", "c")
        .edge("b", "buys", "c")
        .edge("d", "sells", "c")
        .edge("d", "sells", "d")  # self-loop
        .build()
    )


class TestGraphView:
    def test_canonical_interning(self):
        graph = diamond_graph()
        view = build_view(graph)
        assert view.node_of == ("a", "b", "c", "d")  # sorted, not insertion, order
        assert [view.slot_of[n] for n in view.node_of] == [0, 1, 2, 3]
        assert set(view.labels) == {"user", "item", "shop"}
        assert view.pools_by_label["user"] == (0, 1)

    def test_csr_rows_match_graph_adjacency(self):
        graph = diamond_graph()
        view = build_view(graph)
        for node_id in graph.node_ids:
            slot = view.slot_of[node_id]
            for label in graph.edge_labels | {"absent"}:
                expected = {view.slot_of[t] for t in graph.successors(node_id, label)}
                assert view.row_set(True, label, slot) == expected
                assert view.degree(True, label, slot) == graph.out_degree(node_id, label)
                expected_in = {
                    view.slot_of[s] for s in graph.predecessors(node_id, label)
                }
                assert view.row_set(False, label, slot) == expected_in
            # Wildcard (any-label) rows are the deduplicated unions.
            assert view.row_set(True, None, slot) == {
                view.slot_of[t] for t in graph.successors(node_id)
            }
            assert view.row_set(False, None, slot) == {
                view.slot_of[s] for s in graph.predecessors(node_id)
            }

    def test_view_cached_and_invalidated_by_version(self):
        graph = diamond_graph()
        view = get_view(graph)
        assert get_view(graph) is view
        assert peek_view(graph) is view
        graph.add_node("e", "user")
        assert peek_view(graph) is None  # stale view is never handed out
        fresh = get_view(graph)
        assert fresh is not view
        assert "e" in fresh.slot_of


class TestPlanCaching:
    def test_plan_reused_until_mutation(self):
        graph = diamond_graph()
        pattern = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
        plan = compile_plan(graph, pattern)
        assert compile_plan(graph, pattern) is plan
        assert get_view(graph).plan_compiles == 1
        graph.set_attribute("a", "score", 2)  # version bump
        assert compile_plan(graph, pattern) is not plan

    def test_plan_keyed_by_index_attachment(self):
        graph = diamond_graph()
        pattern = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
        unindexed = compile_plan(graph, pattern)
        attach_index(graph)
        try:
            indexed = compile_plan(graph, pattern)
            assert indexed is not unindexed
            assert indexed.indexed and not unindexed.indexed
            # Same view either way: attaching an index mutates nothing.
            assert indexed.view is unindexed.view
        finally:
            detach_index(graph)

    def test_compile_sigma_caches_pools_per_version_and_index(self):
        """One pool map per distinct pattern, in first-appearance order,
        cached per (graph version, index attachment) — and no view."""
        graph = diamond_graph()
        edge = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
        loop = Pattern({"x": "shop"}, [("x", "sells", "x")])
        equal_edge = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
        pools = compile_sigma(graph, [edge, loop, equal_edge, edge])
        assert list(pools) == [edge, loop]
        assert pools[edge] == {"u": {"a", "b"}, "i": {"c"}}
        assert pools[loop] == {"x": {"d"}}
        again = compile_sigma(graph, [loop, edge])
        assert list(again) == [loop, edge]
        assert again[edge] is pools[edge] and again[loop] is pools[loop]
        assert peek_view(graph) is None
        attach_index(graph)
        try:
            indexed = compile_sigma(graph, [edge])[edge]
            assert indexed is not pools[edge]
            assert compile_sigma(graph, [edge])[edge] is indexed
        finally:
            detach_index(graph)
        assert compile_sigma(graph, [edge])[edge] is pools[edge]
        graph.set_attribute("a", "score", 2)  # version bump
        fresh = compile_sigma(graph, [edge])[edge]
        assert fresh is not pools[edge] and fresh == pools[edge]

    def test_self_loop_and_wildcard_steps(self):
        graph = diamond_graph()
        loop = Pattern({"x": "shop"}, [("x", "sells", "x")])
        assert list(find_homomorphisms(loop, graph)) == [{"x": "d"}]
        any_edge = Pattern({"x": WILDCARD, "y": WILDCARD}, [("x", WILDCARD, "y")])
        matches = list(find_homomorphisms(any_edge, graph))
        assert {(m["x"], m["y"]) for m in matches} == {
            ("a", "c"),
            ("b", "c"),
            ("d", "c"),
            ("d", "d"),
        }

    def test_explain_mentions_steps_and_pools(self):
        graph = diamond_graph()
        pattern = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
        text = compile_plan(graph, pattern).explain()
        assert "step 1: scan" in text
        assert "step 2: extend" in text
        assert "pool" in text and "est." in text


#: Patterns over :func:`diamond_graph` that reach each branch of the
#: counting mode: a one-variable plan (its only step is the one
#: counted), a self-loop filter, a disconnected pattern whose last step
#: is a scan, an extend at the deepest step, a three-step chain, and a
#: search whose deepest frames are all empty.
COUNTING_PATTERNS = {
    "one-variable": Pattern({"u": "user"}),
    "self-loop": Pattern({"x": "shop"}, [("x", "sells", "x")]),
    "two-components": Pattern({"u": "user", "s": "shop"}),
    "wildcard-edge": Pattern({"x": WILDCARD, "y": WILDCARD}, [("x", WILDCARD, "y")]),
    "chain": Pattern(
        {"u": "user", "i": "item", "s": "shop"}, [("u", "buys", "i"), ("s", "sells", "i")]
    ),
    "no-match": Pattern(
        {"u": "user", "i": "item", "s": "shop"},
        [("u", "buys", "i"), ("s", "sells", "i"), ("u", "rates", "s")],
    ),
}


class TestPlanCounting:
    @pytest.mark.parametrize("name", list(COUNTING_PATTERNS))
    def test_count_equals_stream_length(self, name):
        graph = diamond_graph()
        pattern = COUNTING_PATTERNS[name]
        for indexed in (False, True):
            if indexed:
                attach_index(graph)
            try:
                expected = len(list(seed_find_homomorphisms(pattern, graph)))
                assert count_matches(pattern, graph) == expected
                assert compile_plan(graph, pattern).count() == expected
            finally:
                detach_index(graph)

    def test_count_observes_the_frames_enumeration_expands(self):
        """Counting runs the executor's own frame function, so its
        observed totals are exactly a full enumeration's."""
        graph = validation_workload(80, rng=3)
        for ged in bounded_rule_set():
            plan = compile_plan(graph, ged.pattern)
            plan.observed.clear()
            with metrics.collecting():
                counted = plan.count()
            observed_by_count = {v: list(e) for v, e in plan.observed.items()}
            plan.observed.clear()
            with metrics.collecting():
                matched = len(list(plan.matches()))
            assert counted == matched
            assert observed_by_count == plan.observed
            plan.observed.clear()


class TestPlanShipping:
    def test_snapshot_ships_installable_plans(self):
        graph = validation_workload(80, rng=3)
        sigma = bounded_rule_set()
        patterns = [ged.pattern for ged in sigma]
        snapshot = snapshot_graph(graph, patterns=patterns)
        assert len(snapshot.plan_pools) == len(patterns)
        restored = snapshot.restore()
        view = get_view(restored)
        assert view.plan_installs == len(patterns)
        assert view.plan_compiles == 0
        for pattern in patterns:
            assert list(find_homomorphisms(pattern, restored)) == list(
                find_homomorphisms(pattern, graph)
            )
        # The shipped plans were used, not recompiled.
        assert view.plan_compiles == 0

    def test_worker_entrypoint_reuses_plans_across_batches(self):
        """Drive the engine worker entry points in-process: the second
        batch must hit the warm plan cache, not recompile."""
        graph = validation_workload(80, rng=3)
        sigma = bounded_rule_set()
        units = plan_tasks(graph, sigma, 2)
        snapshot = snapshot_graph(graph, patterns=[ged.ged.pattern for ged in units])
        saved = engine_pool._WORKER_GRAPH
        try:
            engine_pool._initialize_worker(snapshot.payload())
            worker_graph = engine_pool._worker_graph()
            first = engine_pool._validate_batch(tuple(units))
            view = get_view(worker_graph)
            compiles_after_first = view.plan_compiles + view.plan_installs
            second = engine_pool._validate_batch(tuple(units))
            assert view.plan_compiles + view.plan_installs == compiles_after_first
            assert [v for v, _ in first] == [v for v, _ in second]
        finally:
            engine_pool._WORKER_GRAPH = saved


class TestProgramCache:
    def test_delta_kernel_reuses_pattern_programs(self):
        from repro.streaming.delta import delta_violations

        graph = validation_workload(80, rng=3)
        sigma = bounded_rule_set()
        touched = list(graph.node_ids)[:6]
        delta_violations(graph, sigma, touched)
        primed = program_cache_info()
        delta_violations(graph, sigma, touched)
        after = program_cache_info()
        assert after.misses == primed.misses  # second sweep compiled nothing new
        assert after.hits > primed.hits


class TestDegreeAccessors:
    def test_per_label_degrees(self):
        graph = diamond_graph()
        assert graph.out_degree("d") == 2
        assert graph.out_degree("d", "sells") == 2
        assert graph.out_degree("d", "buys") == 0
        assert graph.in_degree("c", "buys") == 2
        assert graph.in_degree("c", "sells") == 1
        assert graph.in_degree("c", "absent") == 0

    def test_rows_are_live_and_copyless(self):
        graph = diamond_graph()
        assert graph.out_row("a", "buys") is graph.out_row("a", "buys")
        assert graph.out_row("a", "nope") == frozenset()
        assert graph.in_row("c", "buys") == {"a", "b"}
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            graph.out_row("ghost", "buys")

    def test_label_rows_are_live_and_copyless(self):
        graph = diamond_graph()
        users = graph.label_row("user")
        everyone = graph.label_row(None)  # the wildcard row
        assert users is graph.label_row("user") and users == {"a", "b"}
        assert graph.label_row("nope") == frozenset()
        graph.add_node("e", "user")
        assert "e" in users and "e" in everyone and len(everyone) == 5


class TestCliExplain:
    def test_explain_subcommand(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.deps.io import ged_to_dict
        from repro.graph.io import graph_to_json

        graph = validation_workload(40, rng=2)
        graph_path = tmp_path / "g.json"
        rules_path = tmp_path / "r.json"
        graph_path.write_text(graph_to_json(graph))
        rules_path.write_text(
            json.dumps([ged_to_dict(ged) for ged in bounded_rule_set()])
        )
        code = main(
            ["explain", "--graph", str(graph_path), "--rules", str(rules_path), "--index"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "match plan for Q[" in out
        assert "attr-filter" in out
        assert "indexed pools" in out
