"""Graph update batches: the unit of change for streaming maintenance.

A :class:`GraphUpdate` describes one atomic batch of mutations against a
data graph — additions (new nodes, new edges, attribute writes) *and*
deletions (edges, attributes, whole nodes).  Batches are what the
index maintenance layer (:mod:`repro.indexing.maintenance`), the durable
update log (:mod:`repro.graph.io`) and the streaming violation ledger
(:mod:`repro.streaming`) all speak.

**Batch semantics** (enforced by every apply path):

1. Deletions run first, in the order ``del_edges``, ``del_attrs``,
   ``del_nodes`` — deleting a node cascades to its incident edges, so a
   batch may delete a node and re-add the same id ("replace").
2. Additions run second, in the order ``nodes``, ``attrs``, ``edges`` —
   a batch may add a node, write its attributes, and wire it up.
3. Re-adding an existing node id is an **error**, mirroring
   :meth:`~repro.graph.graph.Graph.add_node` (node identity is
   immutable; merging nodes is the chase's job, never done in place).
   To replace a node, delete it in the same batch first.
4. Edge additions are idempotent (``E`` is a set, as in the paper);
   every deletion must name an element that exists at its point in the
   order above, and duplicate deletions within one batch are errors.

**Atomicity**: :func:`validate_update` checks the *whole* batch against
these rules before anything mutates, simulating the in-batch node-set
evolution; apply paths call it first and raise
:class:`~repro.errors.GraphError` (a :class:`~repro.errors.ReproError`)
naming the offending tuple, leaving the graph — and any attached index —
untouched instead of failing mid-batch with the structures half-updated.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.errors import GraphError
from repro.graph.graph import ID_ATTRIBUTE, Edge, Graph, Value


@dataclass
class GraphUpdate:
    """One atomic batch of graph mutations (see the module docstring).

    * ``nodes`` — (id, label, attrs) for new nodes;
    * ``edges`` — (source, label, target) for new edges (idempotent);
    * ``attrs`` — (node id, attribute, value) for attribute writes
      (overwriting an existing value is allowed);
    * ``del_nodes`` — node ids to delete (cascades incident edges);
    * ``del_edges`` — (source, label, target) edges to delete;
    * ``del_attrs`` — (node id, attribute) pairs to delete.
    """

    nodes: Sequence[tuple[str, str, Mapping[str, Value]]] = ()
    edges: Sequence[tuple[str, str, str]] = ()
    attrs: Sequence[tuple[str, str, Value]] = ()
    del_nodes: Sequence[str] = ()
    del_edges: Sequence[tuple[str, str, str]] = ()
    del_attrs: Sequence[tuple[str, str]] = ()

    def touched_nodes(self) -> set[str]:
        """Every node id whose presence, attributes or incident edges
        are affected by the update (deleted ids included — they matter
        for retiring ledger entries even though they no longer exist
        after the batch)."""
        touched = {node_id for node_id, _, _ in self.nodes}
        touched |= {node_id for node_id, _, _ in self.attrs}
        for source, _, target in self.edges:
            touched.add(source)
            touched.add(target)
        touched |= set(self.del_nodes)
        touched |= {node_id for node_id, _ in self.del_attrs}
        for source, _, target in self.del_edges:
            touched.add(source)
            touched.add(target)
        return touched

    def is_empty(self) -> bool:
        return not (
            self.nodes
            or self.edges
            or self.attrs
            or self.del_nodes
            or self.del_edges
            or self.del_attrs
        )

    def size(self) -> int:
        """Number of individual operations in the batch."""
        return (
            len(self.nodes)
            + len(self.edges)
            + len(self.attrs)
            + len(self.del_nodes)
            + len(self.del_edges)
            + len(self.del_attrs)
        )


def _check_attr_name(name: object, offender: tuple) -> None:
    if not isinstance(name, str) or not name:
        raise GraphError(f"invalid attribute name in update {offender!r}")
    if name == ID_ATTRIBUTE:
        raise GraphError(
            f"'id' is the reserved node identity, not a settable attribute: {offender!r}"
        )


def validate_update(graph: Graph, update: GraphUpdate) -> None:
    """Check the whole batch against ``graph`` before any mutation.

    Raises :class:`GraphError` naming the first offending tuple; on
    return, applying the batch in the documented order cannot fail, so
    apply paths are atomic (nothing mutates on a bad batch).
    """
    # -- deletions, simulated in apply order ---------------------------
    deleted_edges: set[Edge] = set()
    for edge in update.del_edges:
        source, label, target = edge
        if edge in deleted_edges:
            raise GraphError(f"duplicate edge deletion in update: {edge!r}")
        if not graph.has_edge(source, label, target):
            raise GraphError(f"cannot delete missing edge {edge!r}")
        deleted_edges.add(edge)
    deleted_attrs: set[tuple[str, str]] = set()
    for node_id, attr in update.del_attrs:
        if (node_id, attr) in deleted_attrs:
            raise GraphError(f"duplicate attribute deletion in update: {(node_id, attr)!r}")
        if not graph.has_node(node_id):
            raise GraphError(
                f"attribute deletion references missing node: {(node_id, attr)!r}"
            )
        if not graph.node(node_id).has_attribute(attr):
            raise GraphError(f"cannot delete missing attribute {(node_id, attr)!r}")
        deleted_attrs.add((node_id, attr))
    deleted_nodes: set[str] = set()
    for node_id in update.del_nodes:
        if node_id in deleted_nodes:
            raise GraphError(f"duplicate node deletion in update: {node_id!r}")
        if not graph.has_node(node_id):
            raise GraphError(f"cannot delete missing node {node_id!r}")
        deleted_nodes.add(node_id)

    # -- additions, against the post-deletion node set -----------------
    added_nodes: set[str] = set()
    for entry in update.nodes:
        node_id, label, attrs = entry
        if not isinstance(node_id, str) or not node_id:
            raise GraphError(f"invalid node id in update {entry!r}")
        if not isinstance(label, str) or not label:
            raise GraphError(f"invalid node label in update {entry!r}")
        if node_id in added_nodes:
            raise GraphError(f"duplicate node addition in update: {node_id!r}")
        if graph.has_node(node_id) and node_id not in deleted_nodes:
            raise GraphError(
                f"node {node_id!r} already exists (node identity is immutable; "
                "delete it in the same batch to replace it)"
            )
        for name in dict(attrs or {}):
            _check_attr_name(name, entry)
        added_nodes.add(node_id)

    def node_exists_after(node_id: str) -> bool:
        if node_id in added_nodes:
            return True
        return graph.has_node(node_id) and node_id not in deleted_nodes

    for entry in update.attrs:
        node_id, name, _value = entry
        _check_attr_name(name, entry)
        if not node_exists_after(node_id):
            raise GraphError(f"attribute write references missing node: {entry!r}")
    for entry in update.edges:
        source, label, target = entry
        if not isinstance(label, str) or not label:
            raise GraphError(f"invalid edge label in update {entry!r}")
        if not node_exists_after(source):
            raise GraphError(f"edge source references missing node: {entry!r}")
        if not node_exists_after(target):
            raise GraphError(f"edge target references missing node: {entry!r}")


def apply_update_plain(graph: Graph, update: GraphUpdate) -> Graph:
    """Apply a (pre-validated or trusted) batch directly to the graph,
    in the documented order, with no index awareness.

    Callers wanting atomicity and index maintenance use
    :func:`repro.indexing.maintenance.apply_update_indexed`, which
    validates first and routes through the maintenance layer.
    """
    for source, label, target in update.del_edges:
        graph.remove_edge(source, label, target)
    for node_id, attr in update.del_attrs:
        graph.remove_attribute(node_id, attr)
    for node_id in update.del_nodes:
        graph.remove_node(node_id)
    for node_id, label, attrs in update.nodes:
        graph.add_node(node_id, label, attrs)
    for node_id, attr, value in update.attrs:
        graph.set_attribute(node_id, attr, value)
    for source, label, target in update.edges:
        graph.add_edge(source, label, target)
    return graph


__all__ = ["GraphUpdate", "apply_update_plain", "validate_update"]
