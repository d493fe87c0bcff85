"""Homomorphism-based graph pattern matching (the paper's semantics).

A *match* of pattern ``Q[x̄]`` in graph ``G`` is a homomorphism ``h`` from
Q to G such that

* for each node ``u ∈ V_Q``:  ``L_Q(u) ≼ L(h(u))``, and
* for each edge ``(u, ι, u′) ∈ E_Q`` there is an edge
  ``(h(u), ι′, h(u′))`` in G with ``ι ≼ ι′``.

Homomorphisms are **not** required to be injective — Section 3 argues at
length that injective (subgraph-isomorphism) semantics is too strict for
GKeys; :mod:`repro.matching.isomorphism` implements the injective variant
only to reproduce that comparison.

The public entry point :func:`find_homomorphisms` is a thin
compatibility wrapper over the plan-compiled core of
:mod:`repro.matching.plan`: each call runs the plan executor
(:func:`~repro.matching.plan.execute_over_pools`) over the pattern's
candidate pools, derived once per (graph version, index attachment)
and cached (:func:`~repro.matching.plan.compile_sigma`).  The yielded
stream — ``dict[variable, node_id]`` matches, deterministic order — is
byte-identical to the historical recursive enumerator, which is
preserved below as :func:`seed_find_homomorphisms` (the
differential-test oracle and benchmark baseline).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.errors import PatternError
from repro.graph.graph import Graph
from repro.matching.candidates import candidate_sets, variable_order
from repro.matching.plan import compile_sigma, count_over_pools, execute_over_pools
from repro.patterns.labels import WILDCARD
from repro.patterns.pattern import Pattern

Match = dict[str, str]


def find_homomorphisms(
    pattern: Pattern,
    graph: Graph,
    fixed: Mapping[str, str] | None = None,
    limit: int | None = None,
    restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None,
) -> Iterator[Match]:
    """Enumerate matches of ``pattern`` in ``graph``.

    Parameters
    ----------
    fixed:
        optional partial assignment ``variable -> node id`` that every
        reported match must extend (used e.g. to ask "is there a match
        sending x to this node?").
    limit:
        stop after this many matches.
    restrict:
        optional ``variable -> allowed node ids`` pools intersected into
        the candidate sets before search.  The caller guarantees the
        pools over-approximate the matches it cares about — the
        index-aware validation layer derives them from X-literals via
        the attribute inverted index, which preserves the violation set
        exactly.
    """
    pools = compile_sigma(graph, (pattern,))[pattern]
    yield from execute_over_pools(
        pattern, graph, pools, fixed=fixed, restrict=restrict, limit=limit
    )


def seed_find_homomorphisms(
    pattern: Pattern,
    graph: Graph,
    fixed: Mapping[str, str] | None = None,
    limit: int | None = None,
    restrict: Mapping[str, "set[str] | frozenset[str]"] | None = None,
    candidates: Mapping[str, "set[str]"] | None = None,
) -> Iterator[Match]:
    """The seed recursive enumerator (reference semantics).

    Kept verbatim — one fix aside: candidate pools are sorted **once**
    before the search instead of re-sorted on every entry into the same
    depth across branches — as the oracle the plan executor must match
    byte for byte, and as the baseline the matching perf gate measures
    against.  Not on any production path.
    """
    fixed = dict(fixed) if fixed else {}
    for variable, node_id in fixed.items():
        if not pattern.has_variable(variable):
            raise PatternError(f"fixed variable {variable!r} is not in the pattern")
        if not graph.has_node(node_id):
            raise PatternError(f"fixed image {node_id!r} is not a node of the graph")

    candidates = dict(candidates) if candidates is not None else candidate_sets(pattern, graph)
    if restrict:
        for variable, pool in restrict.items():
            if not pattern.has_variable(variable):
                raise PatternError(f"restricted variable {variable!r} is not in the pattern")
            candidates[variable] = candidates[variable] & pool
    for variable, node_id in fixed.items():
        if node_id not in candidates[variable]:
            return  # The pinned node can never host this variable.
        candidates[variable] = {node_id}

    order = variable_order(pattern, candidates)
    # Sort each pool exactly once: the per-depth enumeration order is a
    # property of the pool, not of the branch that reaches the depth.
    sorted_pools = {variable: sorted(pool) for variable, pool in candidates.items()}
    assignment: Match = {}
    emitted = 0

    def consistent(variable: str, node_id: str) -> bool:
        """Check every pattern edge between ``variable`` and assigned vars."""
        for edge_label, target in pattern.out_edges(variable):
            image = node_id if target == variable else assignment.get(target)
            if image is None:
                continue
            if edge_label == WILDCARD:
                if image not in graph.successors(node_id):
                    return False
            elif image not in graph.successors(node_id, edge_label):
                return False
        for edge_label, source in pattern.in_edges(variable):
            if source == variable:
                continue  # self-loop already handled via out_edges
            image = assignment.get(source)
            if image is None:
                continue
            if edge_label == WILDCARD:
                if node_id not in graph.successors(image):
                    return False
            elif node_id not in graph.successors(image, edge_label):
                return False
        return True

    def backtrack(depth: int) -> Iterator[Match]:
        nonlocal emitted
        if depth == len(order):
            emitted += 1
            yield dict(assignment)
            return
        variable = order[depth]
        for node_id in sorted_pools[variable]:
            if consistent(variable, node_id):
                assignment[variable] = node_id
                yield from backtrack(depth + 1)
                del assignment[variable]
                if limit is not None and emitted >= limit:
                    return

    yield from backtrack(0)


def find_match(
    pattern: Pattern, graph: Graph, fixed: Mapping[str, str] | None = None
) -> Match | None:
    """The first match, or ``None`` if the pattern has no match."""
    for match in find_homomorphisms(pattern, graph, fixed=fixed, limit=1):
        return match
    return None


def has_match(pattern: Pattern, graph: Graph, fixed: Mapping[str, str] | None = None) -> bool:
    return find_match(pattern, graph, fixed=fixed) is not None


def count_matches(pattern: Pattern, graph: Graph) -> int:
    """The number of matches, counted by the plan executor over the
    pattern's cached pools without materializing them
    (:func:`~repro.matching.plan.count_over_pools`)."""
    return count_over_pools(pattern, graph, compile_sigma(graph, (pattern,))[pattern])


def is_homomorphism(pattern: Pattern, graph: Graph, mapping: Mapping[str, str]) -> bool:
    """Verify that an explicit mapping is a match (used by checkers)."""
    from repro.patterns.labels import matches as label_matches

    if set(mapping) != set(pattern.variables):
        return False
    for variable in pattern.variables:
        node_id = mapping[variable]
        if not graph.has_node(node_id):
            return False
        if not label_matches(pattern.label_of(variable), graph.node(node_id).label):
            return False
    for source, edge_label, target in pattern.edges:
        h_source, h_target = mapping[source], mapping[target]
        if edge_label == WILDCARD:
            if h_target not in graph.successors(h_source):
                return False
        elif h_target not in graph.successors(h_source, edge_label):
            return False
    return True
