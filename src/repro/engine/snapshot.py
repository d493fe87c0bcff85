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
rebuild the derived state" half of the fragment-per-worker model.
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

from repro.graph.fragments import Fragment, Fragmentation
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


def snapshot_size(snapshot: GraphSnapshot) -> int:
    """Pickled payload size in bytes (CLI stats; compare with
    ``len(pickle.dumps(graph))`` to see what the flat encoding saves)."""
    return len(snapshot.payload())


# ----------------------------------------------------------------------
# Fragment-resident snapshots
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FragmentSnapshot:
    """One fragment, frozen into its broadcastable form.

    This is what a *fragment-resident* worker receives instead of the
    whole graph: the fragment's induced local subgraph (interior plus
    replicated border, flat-array encoded) and the metadata the local
    kernels need — the interior set and the border→owner annotations.
    Broadcasting k of these costs O(|G| + borders) total where the
    monolithic model cost O(k·|G|).
    """

    arrays: dict[str, Any] = field(repr=False)
    fragment_index: int
    interior: tuple[str, ...]
    border_owner: tuple[tuple[str, int], ...]
    version: int  # source graph version at capture time
    indexed: bool
    num_nodes: int
    num_edges: int

    def restore(self) -> Fragment:
        """Rebuild the fragment (attaching a local index when the
        coordinator's fragments ran indexed) — once per worker."""
        graph = graph_from_arrays(self.arrays)
        if self.indexed:
            attach_index(graph)
        return Fragment(
            self.fragment_index,
            graph,
            set(self.interior),
            dict(self.border_owner),
        )

    def payload(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)


def snapshot_fragments(
    fragmentation: Fragmentation, *, version: int | None = None
) -> list[FragmentSnapshot]:
    """Capture every fragment of a partition for per-worker broadcast.

    ``indexed`` mirrors the fragmentation's own index decision, so each
    worker rebuilds exactly the local index the coordinator's fragments
    carry.  ``version`` defaults to the partition's recorded source
    version.
    """
    captured = fragmentation.source_version if version is None else version
    return [
        FragmentSnapshot(
            arrays=graph_to_arrays(fragment.graph),
            fragment_index=fragment.index,
            interior=tuple(sorted(fragment.interior)),
            border_owner=tuple(sorted(fragment.border_owner.items())),
            version=captured,
            indexed=fragmentation.indexed,
            num_nodes=fragment.graph.num_nodes,
            num_edges=fragment.graph.num_edges,
        )
        for fragment in fragmentation.fragments
    ]


__all__ = [
    "FragmentSnapshot",
    "GraphSnapshot",
    "snapshot_fragments",
    "snapshot_graph",
    "snapshot_size",
]
