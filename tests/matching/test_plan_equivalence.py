"""Differential tests: the plan executor vs the seed enumerator.

The acceptance bar for the plan-compiled core is *byte-identity*: for
every pattern, graph, and parameter combination, the new executor must
yield the seed matcher's exact stream — same matches, same order, same
prefixes under ``limit``.  These tests compare the two elementwise
(lists of matches, not sets) over

* hypothesis-random small graphs and patterns,
* the random-graph validation workload and the social workload,
* with and without a :mod:`repro.indexing` index attached, and
* under ``fixed`` / ``restrict`` / ``limit``, and with caller-supplied
  candidate pools (``execute_over_pools`` against the seed given the
  same pools).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import random_labeled_graph
from repro.indexing import attach_index, detach_index
from repro.matching import count_matches, find_homomorphisms, seed_find_homomorphisms
from repro.matching.candidates import candidate_sets
from repro.matching.plan import execute_over_pools
from repro.patterns import WILDCARD, Pattern
from repro.reasoning.validation import (
    Violation,
    evaluate_match,
    find_violations,
    sigma_groups,
    x_literal_restrictions,
)
from repro.workloads import (
    bounded_rule_set,
    overlapping_rule_set,
    overlapping_workload,
    synthetic_social_network,
    validation_workload,
)
from tests.streaming.shapes import shape_churn_stream, shape_rule_set


def streams_equal(pattern, graph, **kwargs):
    fast = list(find_homomorphisms(pattern, graph, **kwargs))
    slow = list(seed_find_homomorphisms(pattern, graph, **kwargs))
    assert fast == slow  # elementwise: same matches, same order
    return fast


@st.composite
def graph_pattern_params(draw):
    """Random graph + pattern + (restrict, fixed, limit) parameters."""
    node_labels = ["a", "b"]
    edge_labels = ["r", "s"]
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = random_labeled_graph(n, 0.45, node_labels, edge_labels, rng=seed)
    k = draw(st.integers(min_value=1, max_value=3))
    labels = {f"x{i}": draw(st.sampled_from(node_labels + [WILDCARD])) for i in range(k)}
    variables = list(labels)
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        edges.append(
            (
                draw(st.sampled_from(variables)),
                draw(st.sampled_from(edge_labels + [WILDCARD])),
                draw(st.sampled_from(variables)),
            )
        )
    pattern = Pattern(labels, edges)

    node_ids = list(graph.node_ids)
    restrict = None
    if draw(st.booleans()):
        restrict = {}
        for variable in draw(st.sets(st.sampled_from(variables), max_size=k)):
            restrict[variable] = set(
                draw(st.sets(st.sampled_from(node_ids), max_size=len(node_ids)))
            )
    fixed = None
    if draw(st.booleans()):
        fixed = {draw(st.sampled_from(variables)): draw(st.sampled_from(node_ids))}
    limit = draw(st.sampled_from([None, 0, 1, 2, 5]))
    use_index = draw(st.booleans())
    return graph, pattern, restrict, fixed, limit, use_index


class TestHypothesisByteIdentity:
    @settings(max_examples=200, deadline=None)
    @given(graph_pattern_params())
    def test_stream_identity(self, case):
        graph, pattern, restrict, fixed, limit, use_index = case
        if use_index:
            attach_index(graph)
        try:
            streams_equal(
                pattern, graph, restrict=restrict, fixed=fixed, limit=limit
            )
            assert count_matches(pattern, graph) == len(
                list(seed_find_homomorphisms(pattern, graph))
            )
        finally:
            detach_index(graph)

    @pytest.mark.parametrize("source", ["candidate_sets", "label_rows"])
    @settings(max_examples=80, deadline=None)
    @given(graph_pattern_params())
    def test_caller_pool_identity(self, source, case):
        """The executor over caller pools matches the seed given the
        same pools — including the streaming delta kernel's
        configuration: the graph's live label rows (the wildcard row a
        dict-keys view), one variable pinned by ``fixed``."""
        graph, pattern, restrict, fixed, limit, _ = case
        if source == "candidate_sets":
            pools = candidate_sets(pattern, graph, use_index=False)
        else:
            pools = {
                variable: graph.label_row(None if label == WILDCARD else label)
                for variable, label in pattern.labels.items()
            }
        kwargs = dict(fixed=fixed, restrict=restrict, limit=limit)
        fast = list(execute_over_pools(pattern, graph, pools, **kwargs))
        copies = {variable: set(pool) for variable, pool in pools.items()}
        slow = list(seed_find_homomorphisms(pattern, graph, candidates=copies, **kwargs))
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(graph_pattern_params())
    def test_limit_is_a_prefix(self, case):
        graph, pattern, restrict, fixed, limit, _ = case
        full = list(find_homomorphisms(pattern, graph, restrict=restrict, fixed=fixed))
        if limit:  # limit=0 is no prefix (seed stops at the first branch)
            head = list(
                find_homomorphisms(
                    pattern, graph, restrict=restrict, fixed=fixed, limit=limit
                )
            )
            assert head == full[:limit]

    def test_limit_zero_stops_at_first_fruitless_branch(self):
        """Degenerate limit<=0: the seed checks the limit after every
        branch, not just after yields — a fruitless first branch stops
        the whole enumeration before anything is emitted.  Regression
        for the executor's matching behavior."""
        from repro.graph import GraphBuilder

        graph = (
            GraphBuilder()
            .node("a1", "a")
            .node("a2", "a")
            .node("b1", "b")
            .edge("b1", "r", "a2")
            .edge("a2", "s", "a2")
            .build()
        )
        pattern = Pattern(
            {"v0": "a", "v1": "a", "v2": "b"},
            [("v2", WILDCARD, "v0"), ("v0", "s", "v1")],
        )
        for limit in (0, -1):
            streams_equal(pattern, graph, limit=limit)


def _workload_patterns():
    patterns = [ged.pattern for ged in bounded_rule_set()]
    patterns.append(
        Pattern(
            {"u": "user", "i": "item", "s": "shop"},
            [("u", "buys", "i"), ("s", "sells", "i")],
        )
    )
    patterns.append(Pattern({"x": WILDCARD, "y": "item"}, [("x", WILDCARD, "y")]))
    return patterns


class TestWorkloadByteIdentity:
    def test_random_graph_workload(self):
        graph = validation_workload(150, rng=7)
        for indexed in (False, True):
            if indexed:
                attach_index(graph)
            try:
                for pattern in _workload_patterns():
                    matches = streams_equal(pattern, graph)
                    assert matches  # the workload must actually exercise the search
                    node = matches[0][pattern.variables[0]]
                    streams_equal(pattern, graph, fixed={pattern.variables[0]: node})
                    streams_equal(
                        pattern,
                        graph,
                        restrict={pattern.variables[-1]: set(list(graph.node_ids)[::2])},
                    )
                    streams_equal(pattern, graph, limit=3)
            finally:
                detach_index(graph)

    def test_social_workload(self):
        graph, _truth = synthetic_social_network(rng=5)
        q5ish = Pattern(
            {"x": "account", "x2": "account", "y": "blog", "z": "blog"},
            [("x", "like", "y"), ("x2", "like", "y"), ("x", "post", "z")],
        )
        for indexed in (False, True):
            if indexed:
                attach_index(graph)
            try:
                matches = streams_equal(q5ish, graph)
                assert matches
                streams_equal(q5ish, graph, limit=4)
                streams_equal(
                    q5ish, graph, restrict={"y": set(list(graph.node_ids)[::3])}
                )
            finally:
                detach_index(graph)

    @pytest.mark.parametrize(
        "inputs, merges",
        [
            (lambda: (validation_workload(150, rng=7), bounded_rule_set()), False),
            (lambda: (shape_churn_stream().base, shape_rule_set()), True),
            (lambda: (overlapping_workload(120, rng=3), overlapping_rule_set(6)), True),
        ],
        ids=["bounded", "shapes", "overlapping"],
    )
    def test_validation_equals_seed_interpreter(self, inputs, merges):
        """find_violations (pool-executed) == the per-rule seed
        interpretation, with and without an index — the perf gate's
        correctness half.  The shapes and overlapping sets hold literal
        variants that the grouped full scan enumerates once per group;
        with an index, the shapes set's two X-literal rules split off
        into their own group.  Limited scans and single rules (the
        per-rule loop) give the seed loop's prefix and per-rule slice."""
        graph, sigma = inputs()

        def seed_violations_per_rule():
            per_rule = []
            for ged in sigma:
                found = []
                restrict = x_literal_restrictions(graph, ged)
                for match in seed_find_homomorphisms(
                    ged.pattern, graph, restrict=restrict
                ):
                    failed = evaluate_match(graph, ged, match)
                    if failed:
                        found.append(
                            Violation(ged, tuple(sorted(match.items())), failed)
                        )
                per_rule.append(found)
            return per_rule

        for indexed in (False, True):
            if indexed:
                attach_index(graph)
            try:
                if merges:
                    assert len(sigma_groups(graph, sigma)) < len(sigma)
                per_rule = seed_violations_per_rule()
                seed = [violation for found in per_rule for violation in found]
                assert len(seed) > 3
                assert find_violations(graph, sigma) == seed
                for k in (1, 3):
                    assert find_violations(graph, sigma, limit=k) == seed[:k]
                for ged, found in zip(sigma, per_rule):
                    assert find_violations(graph, [ged]) == found
            finally:
                detach_index(graph)
