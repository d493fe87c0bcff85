"""Unit tests for the candidate-pool cache and the plan executor's layers.

Covers the pieces the differential suite treats as a black box: pool
caching and version-based invalidation, the explain rendering and CLI
subcommand, pool reuse inside engine workers, snapshot restores, the
counting mode, and the pattern-program cache the streaming delta
kernel leans on.
"""

import pytest

from repro.engine import pool as engine_pool
from repro.engine.snapshot import snapshot_graph
from repro.engine.scheduler import plan_tasks
from repro.graph import GraphBuilder
from repro.indexing import attach_index, detach_index
from repro.matching import count_matches, find_homomorphisms, seed_find_homomorphisms
from repro.matching import plan as plan_module
from repro.matching.plan import compile_sigma, explain_pools, program_cache_info
from repro.matching.view import get_view, peek_view, release_view
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


class TestPlanCaching:
    def test_view_cached_and_invalidated_by_version(self):
        graph = diamond_graph()
        view = get_view(graph)
        assert get_view(graph) is view
        assert peek_view(graph) is view
        graph.add_node("e", "user")
        assert peek_view(graph) is None  # stale view is never handed out
        fresh = get_view(graph)
        assert fresh is not view and fresh.version == graph.version
        release_view(graph)
        assert peek_view(graph) is None

    def test_compile_sigma_caches_pools_per_version_and_index(self):
        """One pool map per distinct pattern, in first-appearance order,
        cached in the graph's view per (graph version, index attachment)."""
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
        assert peek_view(graph).pools[(edge, False)] is pools[edge]
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

    def test_consumers_share_one_pool_entry(self):
        """Enumeration, counting, shard planning and validation on one
        graph version all read the pools cached in the graph's view."""
        from repro.parallel.partition import plan_pivot
        from repro.reasoning.validation import find_violations

        graph = validation_workload(80, rng=3)
        sigma = bounded_rule_set()
        pattern = sigma[0].pattern
        list(find_homomorphisms(pattern, graph))
        pools = peek_view(graph).pools[(pattern, False)]
        count_matches(pattern, graph)
        plan_pivot(pattern, graph)
        find_violations(graph, sigma)
        assert peek_view(graph).pools[(pattern, False)] is pools
        assert compile_sigma(graph, [pattern])[pattern] is pools

    def test_adjacency_rows_match_graph_adjacency(self):
        """The executor's one row provider: labeled rows are the graph's
        own per-label sets, wildcard rows the any-label unions."""
        graph = diamond_graph()
        row_set = plan_module._adjacency_rows(graph)
        for node_id in graph.node_ids:
            for label in graph.edge_labels | {"absent"}:
                assert row_set(True, label, node_id) == graph.successors(node_id, label)
                assert row_set(False, label, node_id) == graph.predecessors(node_id, label)
            assert row_set(True, None, node_id) == graph.successors(node_id)
            assert row_set(False, None, node_id) == graph.predecessors(node_id)

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
        text = explain_pools(pattern, graph, compile_sigma(graph, [pattern])[pattern])
        assert "step 1: scan" in text
        assert "step 2: extend" in text
        assert "pool" in text and "est." in text

    def test_explain_without_an_observed_run(self):
        graph = diamond_graph()
        pattern = Pattern({"u": "user", "i": "item"}, [("u", "buys", "i")])
        pools = compile_sigma(graph, [pattern])[pattern]
        assert "obs." not in explain_pools(pattern, graph, pools)
        text = explain_pools(pattern, graph, pools, observed={})
        assert text.count("[obs. not executed]") == 2
        assert "(no observed execution" in text


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
            finally:
                detach_index(graph)

    def test_count_observes_the_frames_enumeration_expands(self):
        """Counting runs the executor's own frame function, so its
        execution counters are exactly a full enumeration's."""
        graph = validation_workload(80, rng=3)
        names = ("plan.frames_expanded", "plan.candidates_produced", "plan.intersections")
        for ged in bounded_rule_set():
            with metrics.collecting() as registry:
                counted = count_matches(ged.pattern, graph)
            by_count = [registry.counter_value(name) for name in names]
            with metrics.collecting() as registry:
                matched = len(list(find_homomorphisms(ged.pattern, graph)))
            assert counted == matched
            assert by_count == [registry.counter_value(name) for name in names]
            assert by_count[0] > 0


class TestSnapshotWorkers:
    def test_restored_snapshot_matches_identically(self):
        graph = validation_workload(80, rng=3)
        restored = snapshot_graph(graph).restore()
        for ged in bounded_rule_set():
            assert list(find_homomorphisms(ged.pattern, restored)) == list(
                find_homomorphisms(ged.pattern, graph)
            )

    def test_worker_derives_each_pattern_pools_once_across_batches(self, monkeypatch):
        """Drive the engine worker entry points in-process: the first
        batch derives each pattern's candidate pools once, the second
        finds them cached on the worker's graph."""
        graph = validation_workload(80, rng=3)
        sigma = bounded_rule_set()
        units = plan_tasks(graph, sigma, 2)
        snapshot = snapshot_graph(graph)
        derived = []
        real = plan_module.candidate_sets

        def counting(pattern, graph, **kwargs):
            derived.append(pattern)
            return real(pattern, graph, **kwargs)

        monkeypatch.setattr(plan_module, "candidate_sets", counting)
        saved = engine_pool._WORKER_GRAPH
        try:
            engine_pool._initialize_worker(snapshot.payload())
            first = engine_pool._validate_batch(tuple(units))
            patterns = {unit.ged.pattern for unit in units}
            assert len(derived) == len(patterns) and set(derived) == patterns
            second = engine_pool._validate_batch(tuple(units))
            assert len(derived) == len(patterns)
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


def _explain(tmp_path, graph, *flags):
    """Run ``cli explain`` on ``graph`` × ``bounded_rule_set()``."""
    import json

    from repro.cli import main
    from repro.deps.io import ged_to_dict
    from repro.graph.io import graph_to_json

    graph_path = tmp_path / "g.json"
    rules_path = tmp_path / "r.json"
    graph_path.write_text(graph_to_json(graph))
    rules_path.write_text(json.dumps([ged_to_dict(ged) for ged in bounded_rule_set()]))
    return main(["explain", "--graph", str(graph_path), "--rules", str(rules_path), *flags])


class TestCliExplain:
    def test_explain_subcommand(self, tmp_path, capsys):
        code = _explain(tmp_path, validation_workload(40, rng=2), "--index")
        out = capsys.readouterr().out
        assert code == 0
        assert "match plan for Q[" in out
        assert "attr-filter" in out
        assert "indexed pools" in out

    def test_explain_renders_the_program_validation_runs(self, tmp_path, capsys):
        """With an index, validation runs each rule X-restricted: the
        rendered order, pools and observed frames are those of the
        restricted run, not of an unrestricted plan."""
        code = _explain(tmp_path, validation_workload(400, rng=13), "--index", "--observed")
        out = capsys.readouterr().out
        assert code == 0
        sections = {block.split("\n", 1)[0]: block for block in out.split("\n\n")}
        top = sections["== same-region-for-top-items =="].splitlines()
        assert top[2].startswith("  step 1: scan i [label item] — pool 10 candidate(s)")
        assert "[obs. 1 frame(s), ~10.0/frame" in top[2]
        assert top[3].startswith("  step 2: extend u [label user] — pool 50 candidate(s)")
        assert "[obs. 10 frame(s)" in top[3]
        low = sections["== low-score-items-have-region =="].splitlines()
        assert low[2].startswith("  step 1: scan i [label item] — pool 38 candidate(s)")
