"""Fragment-routed streaming: per-fragment replication and local deltas.

The engine-backed delta path (:mod:`repro.streaming.parallel`) keeps
workers warm by replicating the **whole** update stream to every worker
— per-worker log traffic is O(k · |batch|).  This module routes instead:
a :class:`FragmentDeltaRouter` maintains a
:class:`~repro.graph.fragments.FragmentedGraph` mirror of the stream and
hands each batch to :meth:`~repro.graph.fragments.FragmentedGraph.apply_update`,
whose :func:`~repro.graph.fragments.route_update` slices carry **only
what each fragment must see** — its own operations plus border-replica
coherence traffic.  The summed slice sizes (``ops_routed``) versus
``k × batch size`` (``ops_full``) quantify the replication saved; the
per-fragment indexes are maintained by the same slices.

The introduced-violation scan is fragment-local where the
ball-completeness rule allows.  It pins the nodes the ledger passes:
its batch footprint's node pins plus its edge pins' endpoints
(:meth:`~repro.streaming.delta.Footprint.pivots`).  A pinned node
whose max-pattern-radius ball closes inside its owner fragment is
scanned by the ordinary :func:`~repro.streaming.delta.delta_violations`
kernel **on the fragment's induced subgraph**; pinned nodes whose balls
cross cuts — and every dependency whose pattern spans multiple weakly
connected components (a pin leaves the other components unconstrained,
so no fragment suffices) — escalate to the same kernel on the
coordinator's whole graph.  Duplicates across passes (one match meeting
pinned nodes in two fragments) are resolved by the ledger's keyed
insert, exactly as on the engine path; the maintained violation set
stays byte-identical to the serial kernel's, which the property tests
assert.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.deps.ged import GED
from repro.graph.fragments import FragmentedGraph
from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate
from repro.indexing.registry import get_index
from repro.matching.locality import ball_closes_locally, pattern_radius, pivot_radius
from repro.telemetry import metrics as _metrics

from repro.streaming.delta import TaggedViolation, delta_violations


class FragmentDeltaRouter:
    """Routes one update stream through a fragmented mirror.

    Construct against the *pre-stream* graph (the mirror partitions a
    copy of it); thereafter hand :meth:`refresh` every batch — in
    order, every batch — so the mirror never diverges from the
    coordinator's graph.
    """

    def __init__(
        self,
        graph: Graph,
        sigma: Sequence[GED],
        fragments: int | None = None,
        mode: str = "hash",
    ):
        from repro.engine.pool import resolve_workers

        self.sigma = list(sigma)
        self.k = resolve_workers(fragments)
        self.mode = mode
        self.mirror = FragmentedGraph.partition(
            graph, self.k, mode, indexed=get_index(graph) is not None
        )
        # Dependencies whose pattern is weakly connected — any variable
        # has a finite pivot radius — can run fragment-locally; the rest
        # always escalate (positions kept so reported indices stay
        # relative to the full Σ).
        self._local_positions = [
            position
            for position, ged in enumerate(self.sigma)
            if pivot_radius(ged.pattern, next(iter(ged.pattern.variables))) is not None
        ]
        self._global_positions = [
            position
            for position in range(len(self.sigma))
            if position not in self._local_positions
        ]
        self._local_sigma = [self.sigma[position] for position in self._local_positions]
        self._global_sigma = [self.sigma[position] for position in self._global_positions]
        self._radius = max(
            (pattern_radius(ged.pattern) for ged in self._local_sigma), default=0
        )
        self.ops_routed = 0
        self.ops_full = 0
        self.escalated_nodes = 0

    def refresh(
        self, graph: Graph, update: GraphUpdate, touched: Iterable[str]
    ) -> list[TaggedViolation]:
        """Route one (already applied to ``graph``) batch and return the
        introduced-violation candidates meeting ``touched``."""
        routed = self.mirror.apply_update(update)
        self.ops_routed += routed.total_operations()
        self.ops_full += self.k * update.size()

        live = sorted(node_id for node_id in set(touched) if graph.has_node(node_id))
        if not live:
            return []
        fragmentation = self.mirror.fragmentation
        per_fragment: dict[int, list[str]] = {}
        escalated: list[str] = []
        for node_id in live:
            fragment = fragmentation.fragment_of(node_id)
            if ball_closes_locally(
                fragment.graph, fragment.interior, node_id, self._radius
            ):
                per_fragment.setdefault(fragment.index, []).append(node_id)
            else:
                escalated.append(node_id)
        self.escalated_nodes += len(escalated)
        sink = _metrics.sink()
        sink.incr("stream.pivots.local", len(live) - len(escalated))
        sink.incr("stream.pivots.escalated", len(escalated))

        found: list[TaggedViolation] = []

        def remap(results: list[TaggedViolation], positions: list[int]) -> None:
            """Translate a kernel's fragment-local rule indexes back to Σ."""
            for local_index, violation in results:
                position = positions[local_index]
                # Re-anchor on the coordinator's own GED instance (the
                # fragment kernel saw the same object, but keep the
                # contract explicit for future remote fragments).
                found.append((position, violation))

        if self._local_sigma:
            for fragment_index in sorted(per_fragment):
                fragment = fragmentation.fragments[fragment_index]
                remap(
                    delta_violations(
                        fragment.graph, self._local_sigma, per_fragment[fragment_index]
                    ),
                    self._local_positions,
                )
            if escalated:
                remap(
                    delta_violations(graph, self._local_sigma, escalated),
                    self._local_positions,
                )
        if self._global_sigma:
            remap(
                delta_violations(graph, self._global_sigma, live),
                self._global_positions,
            )
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FragmentDeltaRouter(k={self.k}, mode={self.mode!r}, "
            f"routed={self.ops_routed}, full={self.ops_full}, "
            f"escalated={self.escalated_nodes})"
        )


__all__ = ["FragmentDeltaRouter"]
