"""Compact broadcast snapshots of a graph (plus its index decision).

The old process backend pickled the full ``Graph`` object — every
``Node`` instance, every adjacency dict — once per (dependency, shard)
task.  A :class:`GraphSnapshot` is the engine's answer: the graph is
captured **once** as the flat integer columns of
:func:`repro.graph.io.graph_to_arrays` (several times smaller and far
cheaper to pickle than the object graph), shipped to each worker at pool
start, and rebuilt there exactly once.

The snapshot also records whether the coordinating process had a synced
:mod:`repro.indexing` bundle attached.  The index itself is *not*
serialized: rebuilding it from the restored graph is a single O(|G|)
scan (:func:`repro.indexing.indexed_graph.build_indexes`), cheaper than
shipping its dict-of-sets structure — this is the "broadcast the data,
rebuild the derived state" half of the replicated-graph model.
``version`` is the source graph's mutation counter at capture time; the
pool registry keys on it so a mutated graph never reuses stale workers.

Matching state is derived state too: a worker derives each pattern's
candidate pools on first use and caches them on its restored graph
(:mod:`repro.matching.view`), which never mutates, so they serve every
later shard of that pattern.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

from repro.graph.graph import Graph
from repro.graph.io import graph_from_arrays, graph_to_arrays
from repro.indexing.registry import attach_index, get_index


@dataclass(frozen=True)
class GraphSnapshot:
    """One graph, frozen into its broadcastable form."""

    arrays: dict[str, Any] = field(repr=False)
    version: int
    indexed: bool
    num_nodes: int
    num_edges: int

    def restore(self) -> Graph:
        """Rebuild the graph (and, when ``indexed``, attach a fresh
        index) — once per worker, never per task."""
        graph = graph_from_arrays(self.arrays)
        if self.indexed:
            attach_index(graph)
        return graph

    def payload(self) -> bytes:
        """The pickled broadcast payload (what pool initializers ship)."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)


def snapshot_graph(graph: Graph, *, ensure_index: bool = False) -> GraphSnapshot:
    """Capture ``graph`` for broadcast.

    ``indexed`` mirrors the coordinator's state: workers rebuild an
    index exactly when the coordinator had a synced one attached, so
    engine-pooled runs make the same index-vs-unindexed choice as the
    serial reference.  ``ensure_index=True`` attaches one first (the
    CLI ``engine`` command's default — building once and broadcasting
    is the engine's whole point).
    """
    if ensure_index and get_index(graph) is None:
        attach_index(graph)
    return GraphSnapshot(
        arrays=graph_to_arrays(graph),
        version=graph.version,
        indexed=get_index(graph) is not None,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
    )


__all__ = [
    "GraphSnapshot",
    "snapshot_graph",
]
