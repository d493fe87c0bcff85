"""Incremental index maintenance under :class:`GraphUpdate` batches.

The update model is the full one of :mod:`repro.graph.update`: new
nodes, new edges, attribute writes, *and* deletions of edges, attributes
and whole nodes.  Node labels remain immutable, so the dirty region of a
batch is its ``touched_nodes()`` plus — for deletions only — the former
neighbors of deleted nodes: a new edge perturbs only the degree counters
and signatures of its two endpoints, an attribute write only the
postings of its node, and a *deleted* edge or node additionally requires
recomputing the 1-hop signatures of the surviving endpoints (a signature
pair disappears only when its last witnessing edge does, so deletion is
the one case patched by an O(degree) recompute instead of a set insert).
Maintenance therefore patches O(|batch| + |batch's neighborhood|) index
entries where a rebuild pays O(|G|); ``benchmarks/bench_indexing.py``
measures the gap and the maintenance tests assert patch == rebuild,
structure by structure — deletions included.

Every batch is validated against the graph **up front**
(:func:`repro.graph.update.validate_update`): a bad element — an edge
referencing a nonexistent endpoint, an attribute write to a missing
node, a deletion of something absent, a re-added node id — raises
:class:`~repro.errors.GraphError` naming the offending tuple before
anything mutates, so the graph and its index are never left partially
updated.  Each element is then applied to the graph through the ordinary
Graph API (so the mutation counter advances) and mirrored into the
index; afterwards ``synced_version`` is fast-forwarded to the graph's
counter, re-certifying the index with the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate, apply_update_plain, validate_update
from repro.telemetry import metrics as _metrics

from repro.indexing.indexed_graph import GraphIndexes
from repro.indexing.registry import get_index


@dataclass
class MaintenanceReport:
    """What one batch actually changed in the index (the dirty region)."""

    dirty_nodes: set[str] = field(default_factory=set)
    nodes_added: int = 0
    edges_added: int = 0
    attrs_written: int = 0
    nodes_removed: int = 0
    edges_removed: int = 0
    attrs_removed: int = 0

    def total_operations(self) -> int:
        return (
            self.nodes_added
            + self.edges_added
            + self.attrs_written
            + self.nodes_removed
            + self.edges_removed
            + self.attrs_removed
        )


class IndexMaintenance:
    """Applies update batches to a (graph, index) pair, keeping them in
    lock-step.

    The graph must not be mutated behind the maintainer's back between
    batches; if it is, :meth:`apply` refuses (stale index) rather than
    patching on top of unseen changes.
    """

    def __init__(self, graph: Graph, index: GraphIndexes):
        self.graph = graph
        self.index = index

    def apply(self, update: GraphUpdate) -> MaintenanceReport:
        if self.index.synced_version != self.graph.version:
            raise ValueError(
                "index is stale (graph mutated outside the maintenance layer); "
                "rebuild with repro.indexing.attach_index"
            )
        graph, index = self.graph, self.index
        validate_update(graph, update)
        report = MaintenanceReport(dirty_nodes=update.touched_nodes())

        # -- deletions first (see repro.graph.update batch semantics) --
        # Endpoints whose adjacency shrank; their counters and
        # signatures are recomputed once, after all deletions land.
        dirty_adjacency: set[str] = set()
        unindexable_candidates: set[str] = set()

        for source, edge_label, target in update.del_edges:
            graph.remove_edge(source, edge_label, target)
            dirty_adjacency.add(source)
            dirty_adjacency.add(target)
            report.edges_removed += 1

        for node_id, attr in update.del_attrs:
            old_value = graph.node(node_id).get(attr)
            graph.remove_attribute(node_id, attr)
            index.remove_attr_posting(node_id, attr, old_value)
            if attr in index.unindexable_attrs and not _hashable(old_value):
                unindexable_candidates.add(attr)
            report.attrs_removed += 1

        for node_id in update.del_nodes:
            attributes = graph.node(node_id).attributes
            removed_edges = graph.remove_node(node_id)
            index.unindex_node(node_id, attributes)
            for attr, value in attributes.items():
                if attr in index.unindexable_attrs and not _hashable(value):
                    unindexable_candidates.add(attr)
            for source, _, target in removed_edges:
                dirty_adjacency.add(source)
                dirty_adjacency.add(target)
            report.dirty_nodes.update(
                endpoint
                for edge in removed_edges
                for endpoint in (edge[0], edge[2])
            )
            report.nodes_removed += 1

        for node_id in dirty_adjacency:
            if graph.has_node(node_id):
                index.refresh_adjacency(graph, node_id)
        for attr in unindexable_candidates:
            self._rescan_unindexable(attr)

        # -- additions second ------------------------------------------
        for node_id, label, attrs in update.nodes:
            node = graph.add_node(node_id, label, attrs)
            index.index_node(node)
            report.nodes_added += 1

        for node_id, attr, value in update.attrs:
            node = graph.node(node_id)
            had_old = node.has_attribute(attr)
            old_value = node.get(attr)
            graph.set_attribute(node_id, attr, value)
            if had_old:
                index.unindex_attr_value(node_id, attr, old_value)
            index.index_attr_value(node_id, attr, value)
            if had_old and attr in index.unindexable_attrs and not _hashable(old_value):
                self._rescan_unindexable(attr)
            report.attrs_written += 1

        for source, edge_label, target in update.edges:
            if graph.has_edge(source, edge_label, target):
                graph.add_edge(source, edge_label, target)  # idempotent no-op
                continue
            graph.add_edge(source, edge_label, target)
            index.index_edge(
                source,
                edge_label,
                target,
                source_label=graph.node(source).label,
                target_label=graph.node(target).label,
            )
            report.edges_added += 1

        index.synced_version = graph.version
        sink = _metrics.sink()
        if sink.enabled:
            sink.incr("index.maintenance_batches")
            sink.incr("index.maintenance_ops", report.total_operations())
        return report

    def _rescan_unindexable(self, attr: str) -> None:
        """Re-derive whether ``attr`` still carries an unhashable value.

        Called only when an unhashable value was removed or overwritten:
        hashable values keep exact postings even while the attribute is
        flagged unindexable, so when the last unhashable value goes the
        flag can be cleared (matching a from-scratch rebuild) with one
        scan of the nodes still carrying the attribute.
        """
        graph, index = self.graph, self.index
        for node_id in index.has_attr.get(attr, ()):
            if not _hashable(graph.node(node_id).get(attr)):
                return  # still unindexable
        index.unindexable_attrs.discard(attr)


def _hashable(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def apply_update_indexed(
    graph: Graph,
    update: GraphUpdate,
    index: GraphIndexes | None = None,
) -> Graph:
    """Apply a batch in place: the one apply entry point for callers
    that want atomicity and a maintained index.

    The batch is validated up front either way (atomicity: a bad batch
    raises before any mutation, see
    :func:`repro.graph.update.validate_update`).  With a synced index
    attached the batch is routed through :class:`IndexMaintenance`, so
    the index is patched in place (dirty-region work proportional to
    the batch) instead of going stale; with none, this is
    :func:`repro.graph.update.apply_update_plain`.  Either way the
    graph's mutation counter advances, retiring any warm
    :mod:`repro.engine` pool whose snapshot predates the batch.
    Returns the graph for chaining.
    """
    if index is None:
        index = get_index(graph)
    if index is not None and index.synced_version == graph.version:
        IndexMaintenance(graph, index).apply(update)
        return graph
    validate_update(graph, update)
    return apply_update_plain(graph, update)


__all__ = ["IndexMaintenance", "MaintenanceReport", "apply_update_indexed"]
