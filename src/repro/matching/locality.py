"""Locality of pattern matching: distances, balls, and ball-completeness.

A match of ``Q[x̄]`` that pins one variable to a concrete node is a
*local* object: every pattern edge maps to a graph edge, so for
variables ``u, w`` in the same weakly connected component of Q any match
sends their images to nodes within undirected graph distance
``dist_Q(u, w)`` of each other.  This module holds the shared locality
toolkit:

* :func:`pattern_distances` / :func:`pattern_radius` — the memoized
  pairwise distance table and its maximum (the largest radius any pin
  can impose); :func:`pivot_radius` is the per-pivot eccentricity, and
  is ``None`` when the pattern has variables the pivot cannot reach
  (a cross-component pattern leaves them unconstrained by the pin, so
  no finite ball contains all images);
* :func:`ball_levels` — cumulative undirected BFS balls around a node;
* **ball-completeness** (:func:`ball_closes_locally` /
  :func:`split_local_pivots`) — the rule that makes fragment-local
  matching exact on an edge-cut partition (:mod:`repro.graph.fragments`).

**The ball-completeness rule.**  A fragment stores the subgraph induced
on ``interior ∪ border`` where every border node is adjacent to an
interior node.  For a pivot ``v`` in the interior and radius ``r``: if
every node within local distance ``≤ r − 1`` of ``v`` is interior, then

1. the local radius-``r`` ball equals the global one (each ball node is
   reached through a node of depth ``< r`` whose full adjacency is
   present, interior adjacency being complete by construction), and
2. every edge of the global subgraph induced on the ball is present
   locally: an edge with an interior endpoint is local by the edge-cut
   definition, and an edge between two depth-``r`` border nodes is local
   because the fragment stores the *induced* subgraph — border-border
   edges included.

Matches pinning ``v`` live entirely inside that ball, so enumerating
them on the fragment equals enumerating them on the whole graph — the
equivalence the fragment backend's byte-identity tests assert.  Pivots
failing the rule are *escalated* to a coordinator-side whole-graph pass.

These helpers grew out of the streaming delta kernel; they sit in the
matching layer because fragment-local validation and the fragment delta
router decide locality with them.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from functools import lru_cache

from repro.graph.graph import Graph
from repro.patterns.pattern import Pattern


@lru_cache(maxsize=None)
def pattern_distances(pattern: Pattern) -> dict[str, dict[str, int]]:
    """Undirected pairwise distances between a pattern's variables.

    ``result[u][w]`` is defined exactly for w in u's weakly connected
    component (``result[u][u] == 0``).  Patterns are immutable and
    shared across dependencies, so the table is memoized per pattern.
    """
    result: dict[str, dict[str, int]] = {}
    for start in pattern.variables:
        distances = {start: 0}
        frontier = [start]
        depth = 0
        while frontier:
            depth += 1
            next_frontier: list[str] = []
            for variable in frontier:
                neighbors = [t for _, t in pattern.out_edges(variable)] + [
                    s for _, s in pattern.in_edges(variable)
                ]
                for neighbor in neighbors:
                    if neighbor not in distances:
                        distances[neighbor] = depth
                        next_frontier.append(neighbor)
            frontier = next_frontier
        result[start] = distances
    return result


def pattern_radius(pattern: Pattern) -> int:
    """The largest pattern distance any pin can impose (max eccentricity)."""
    distances = pattern_distances(pattern)
    return max((d for row in distances.values() for d in row.values()), default=0)


def pivot_radius(pattern: Pattern, pivot: str) -> int | None:
    """The eccentricity of ``pivot``: the ball radius containing every
    image of a match that pins it — or ``None`` when some variable lies
    in another weakly connected component (no finite ball suffices, so
    fragment-local evaluation must escalate every pivot)."""
    reachable = pattern_distances(pattern)[pivot]
    if len(reachable) != len(pattern.variables):
        return None
    return max(reachable.values(), default=0)


def ball_levels(graph: Graph, center: str, radius: int) -> list[set[str]]:
    """Cumulative undirected BFS balls: ``levels[d]`` = nodes within
    distance d of ``center`` (``levels[0] == {center}``)."""
    within = {center}
    levels = [set(within)]
    frontier = {center}
    for _ in range(radius):
        next_frontier: set[str] = set()
        for node_id in frontier:
            next_frontier |= graph.successors(node_id)
            next_frontier |= graph.predecessors(node_id)
        next_frontier -= within
        if not next_frontier:
            # Ball saturated: reuse the last level for remaining radii.
            levels.extend(set(within) for _ in range(radius - len(levels) + 1))
            break
        within |= next_frontier
        levels.append(set(within))
        frontier = next_frontier
    return levels


def ball_closes_locally(
    local_graph: Graph,
    interior: Collection[str],
    pivot: str,
    radius: int,
) -> bool:
    """Whether the radius-``radius`` ball around ``pivot`` is decidable
    on this fragment (see the module docstring for the proof sketch).

    ``local_graph`` is the fragment's induced subgraph, ``interior`` its
    owned node set; the pivot must be interior.  Radius 0 (single-
    variable patterns) is always local.
    """
    if radius <= 0:
        return True
    core = ball_levels(local_graph, pivot, radius - 1)[-1]
    return core <= set(interior) if not isinstance(interior, (set, frozenset)) else core <= interior


def split_local_pivots(
    local_graph: Graph,
    interior: Collection[str],
    pivots: Iterable[str],
    radius: int | None,
) -> tuple[list[str], list[str]]:
    """Partition interior ``pivots`` into (locally decidable, escalated).

    ``radius=None`` (cross-component pattern) escalates everything; with
    an empty border every pivot is trivially local.  Both lists come
    back sorted — the deterministic order the validation kernels pin.
    """
    ordered = sorted(pivots)
    if radius is None:
        return [], ordered
    interior_set = interior if isinstance(interior, (set, frozenset)) else set(interior)
    if radius <= 0 or local_graph.num_nodes == len(interior_set):
        return ordered, []
    local: list[str] = []
    escalated: list[str] = []
    for pivot in ordered:
        if ball_closes_locally(local_graph, interior_set, pivot, radius):
            local.append(pivot)
        else:
            escalated.append(pivot)
    return local, escalated


__all__ = [
    "ball_closes_locally",
    "ball_levels",
    "pattern_distances",
    "pattern_radius",
    "pivot_radius",
    "split_local_pivots",
]
