"""The per-graph candidate-pool cache — matching's one per-graph cache.

Every matching consumer runs the plan executor
(:func:`~repro.matching.plan.execute_over_pools`) over a pattern's
candidate pools straight on the graph's adjacency sets.  Deriving those
pools (:func:`~repro.matching.candidates.candidate_sets`: label, degree
and, with an index attached, signature pruning) is the per-pattern cost
worth keeping across calls, so each graph gets one :class:`PoolView`:
the frozen pools of every pattern matched on it so far, keyed
``(pattern, index attached?)``, for one graph version.

Views live in a process-wide weak registry keyed by graph *identity*
(the scheme of :mod:`repro.indexing.registry`) and are guarded by the
graph's mutation counter: a mutation retires the view and every pool on
it, so invalidation is exactly "the graph version moved".  A view is
empty when built and fills as patterns are matched
(:func:`~repro.matching.plan.compile_sigma`), so building one costs
nothing per node or edge.
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.utils.registry import WeakIdRegistry


class PoolView:
    """One graph version's candidate pools (build with :func:`build_view`)."""

    __slots__ = ("version", "pools")

    def __init__(self, version: int) -> None:
        self.version = version
        #: ``(pattern, indexed) -> {variable: frozenset of node ids}``.
        self.pools: dict[tuple[object, bool], dict[str, frozenset[str]]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PoolView(v={self.version}, patterns={len(self.pools)})"


def build_view(graph: Graph) -> PoolView:
    """A fresh, empty view of ``graph``'s current version."""
    return PoolView(graph.version)


# Identity-keyed weak registry (see repro.utils.registry): probes are
# O(1) integer lookups, entries die with their graphs, and a view holds
# no strong reference back to its graph.
_views: WeakIdRegistry = WeakIdRegistry()


def get_view(graph: Graph) -> PoolView:
    """The current view for ``graph``, replaced on version mismatch."""
    view = _views.get(graph)
    if view is None or view.version != graph.version:
        view = build_view(graph)
        _views.set(graph, view)
    return view


def peek_view(graph: Graph) -> PoolView | None:
    """The registered view if it is still in sync, else ``None`` (tests
    and stats; never builds)."""
    view = _views.get(graph)
    if view is None or view.version != graph.version:
        return None
    return view


def release_view(graph: Graph) -> None:
    """Drop ``graph``'s view.

    For a caller that scans a graph once and then mutates it (a ledger
    bootstrap): the view would otherwise stay, never read again, until
    the next pool lookup on that graph.
    """
    _views.pop(graph)


__all__ = ["PoolView", "build_view", "get_view", "peek_view", "release_view"]
