"""The fragmented graph core: edge-cut partitions of the data graph.

Every parallel backend before this module sharded the *match space* of
one monolithic :class:`~repro.graph.graph.Graph` that each worker
replicated in full — broadcast cost, worker memory and update
replication all scaled with |G|, not |G|/k.  This module partitions the
**data itself**, the way Fan & Lu's dependencies-for-graphs setting
presumes for graphs too big for one machine's working set:

* :func:`partition_graph` cuts V into k disjoint *interior* sets
  (``"hash"`` — stable CRC32 of the node id; ``"greedy"`` — a
  deterministic METIS-style linear greedy pass that keeps neighbors
  together under a balance cap);
* each :class:`Fragment` stores the subgraph **induced** on its interior
  plus its *border* (every node outside the interior that is adjacent to
  it), with border nodes annotated with their owning fragment.  Storing
  the induced subgraph — border-border edges included — is what makes
  the ball-completeness rule of :mod:`repro.matching.locality` sound:
  a pivot whose pattern-radius ball keeps its core interior can be
  matched entirely on the fragment, byte-identically to the whole graph;
* :class:`FragmentedGraph` is the facade that answers the whole-graph
  ``Graph`` read API by routing every probe to the *owner* fragment of
  the node involved (the owner holds the node's complete adjacency, so
  no probe ever needs a second fragment);
* :func:`route_update` slices one :class:`~repro.graph.update.GraphUpdate`
  batch into per-fragment sub-batches carrying **only what each fragment
  must see** — the operations on its own nodes plus the border-replica
  coherence traffic (replica creation with completion edges when a node
  becomes adjacent to a fragment's interior, replica retirement when the
  last such adjacency goes away, attribute fan-out to every holder).
  :meth:`FragmentedGraph.apply_update` applies each slice through the
  index-maintaining path, so per-fragment indexes stay synced exactly
  like the monolithic one does.

The facade's answers — and the violations of every fragment-resident
execution path built on it — are asserted byte-identical to the
monolithic graph by the property suites in ``tests/graph`` and
``tests/parallel``.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import GraphError
from repro.graph.graph import Edge, Graph, Node, Value
from repro.graph.update import GraphUpdate, validate_update
from repro.telemetry import metrics as _metrics
from repro.utils.registry import WeakIdRegistry

PARTITION_MODES = ("hash", "greedy")


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


def _hash_owner(node_id: str, k: int) -> int:
    """Stable owner assignment (CRC32, not Python's salted ``hash``) —
    the same node lands in the same fragment in every process."""
    return zlib.crc32(node_id.encode("utf-8")) % k


def _hash_assignment(graph: Graph, k: int) -> dict[str, int]:
    return {node_id: _hash_owner(node_id, k) for node_id in graph.node_ids}


_GREEDY_REFINE_ROUNDS = 4


def _greedy_assignment(graph: Graph, k: int) -> dict[str, int]:
    """Deterministic METIS-style greedy balanced partitioning.

    Two phases, both fully deterministic for a given graph:

    1. **Greedy graph growing** (the METIS initial partitioner): each
       fragment grows from a seed — the smallest unassigned node id —
       by repeatedly absorbing the unassigned node with the most edges
       into the region (ties by id), until it reaches ⌈n/k⌉ nodes.
       Dense communities are swallowed whole before a region ever
       crosses a weak link, which is exactly what keeps borders small
       on clustered data.
    2. **Local refinement** (Kernighan–Lin flavored): a few passes over
       the nodes in sorted order, moving any node whose neighbors
       majority-live in another fragment with spare capacity, repairing
       the growth phase's boundary mistakes.
    """
    n = graph.num_nodes
    capacity = -(-n // k) + 1 if n else 1
    target = -(-n // k) if n else 1
    owner: dict[str, int] = {}
    members = [0] * k

    def neighbors(node_id: str) -> set[str]:
        return graph.successors(node_id) | graph.predecessors(node_id)

    unassigned = set(graph.node_ids)
    for fragment_index in range(k):
        if not unassigned:
            break
        # Gain map over the growth frontier: unassigned node -> #edges
        # into the growing region.
        gains: dict[str, int] = {}
        grown = 0
        while grown < target and unassigned:
            if gains:
                node_id = max(gains, key=lambda m: (gains[m], m))
                # Ascending id on gain ties would bias toward early ids;
                # (gain, id) max picks the *largest* id — any fixed rule
                # works, it only needs to be deterministic.
                del gains[node_id]
            else:
                node_id = min(unassigned)  # fresh seed (new component)
            unassigned.discard(node_id)
            owner[node_id] = fragment_index
            members[fragment_index] += 1
            grown += 1
            for neighbor in neighbors(node_id):
                if neighbor in unassigned:
                    gains[neighbor] = gains.get(neighbor, 0) + 1
    for node_id in sorted(unassigned):  # remainder after the last region
        owner[node_id] = k - 1
        members[k - 1] += 1

    ordered = sorted(owner)
    for _ in range(_GREEDY_REFINE_ROUNDS):
        moved = False
        for node_id in ordered:
            current = owner[node_id]
            counts = [0] * k
            for neighbor in neighbors(node_id):
                counts[owner[neighbor]] += 1
            best = max(
                range(k),
                key=lambda f: (
                    counts[f],
                    f == current,  # prefer staying put on equal pull
                    -members[f],
                    -f,
                ),
            )
            if best != current and counts[best] > counts[current] and members[best] < capacity:
                owner[node_id] = best
                members[current] -= 1
                members[best] += 1
                moved = True
        if not moved:
            break
    return owner


@dataclass
class Fragment:
    """One fragment: interior nodes it owns, replicated border nodes,
    and the subgraph induced on their union (``graph``).

    ``border_owner`` maps each border node to its owning fragment index
    — the annotation escalation and update routing navigate by.
    """

    index: int
    graph: Graph
    interior: set[str]
    border_owner: dict[str, int] = field(default_factory=dict)

    @property
    def border(self) -> set[str]:
        return set(self.border_owner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fragment({self.index}, interior={len(self.interior)}, "
            f"border={len(self.border_owner)}, edges={self.graph.num_edges})"
        )


@dataclass
class Fragmentation:
    """A complete edge-cut partition of one graph into fragments."""

    fragments: list[Fragment]
    owner: dict[str, int]
    mode: str
    source_version: int
    indexed: bool = False

    @property
    def k(self) -> int:
        return len(self.fragments)

    def fragment_of(self, node_id: str) -> Fragment:
        try:
            return self.fragments[self.owner[node_id]]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def cut_edges(self) -> int:
        """Edges whose endpoints live in different fragments."""
        return sum(
            1
            for fragment in self.fragments
            for source, _, target in fragment.graph.edges
            if self.owner.get(source) == fragment.index
            and self.owner.get(target) != fragment.index
        )

    def replicated_nodes(self) -> int:
        """Total border replicas across fragments (0 = no cuts at all)."""
        return sum(len(fragment.border_owner) for fragment in self.fragments)

    def check(self, reference: Graph) -> None:
        """Assert the structural invariants against a reference graph.

        Interior sets partition V; each border set is exactly the
        exterior neighborhood of the interior; each local graph is the
        subgraph induced on interior ∪ border.  Raises ``AssertionError``
        on any violation (test/debug helper, not a hot path).
        """
        all_interior: set[str] = set()
        for fragment in self.fragments:
            assert not (all_interior & fragment.interior), "interiors overlap"
            all_interior |= fragment.interior
            for node_id in fragment.interior:
                assert self.owner.get(node_id) == fragment.index, "owner map out of sync"
        assert all_interior == set(reference.node_ids), "interiors do not cover V"
        for fragment in self.fragments:
            expected_border = {
                neighbor
                for node_id in fragment.interior
                for neighbor in (
                    reference.successors(node_id) | reference.predecessors(node_id)
                )
                if neighbor not in fragment.interior
            }
            assert fragment.border == expected_border, (
                f"fragment {fragment.index} border mismatch"
            )
            for node_id, owner_index in fragment.border_owner.items():
                assert self.owner[node_id] == owner_index, "border owner annotation stale"
            expected = reference.induced_subgraph(fragment.interior | fragment.border)
            assert fragment.graph == expected, f"fragment {fragment.index} graph mismatch"


def partition_graph(graph: Graph, k: int, mode: str = "hash") -> Fragmentation:
    """Cut ``graph`` into ``k`` fragments (see the module docstring).

    ``k`` larger than the node count simply leaves trailing fragments
    empty.  The partition is a snapshot: fragment graphs are independent
    copies, and ``source_version`` records the graph version captured.
    """
    if k < 1:
        raise ValueError(f"fragment count must be >= 1, got {k}")
    if mode not in PARTITION_MODES:
        raise ValueError(f"mode must be one of {PARTITION_MODES}, got {mode!r}")
    owner = _hash_assignment(graph, k) if mode == "hash" else _greedy_assignment(graph, k)
    interiors: list[set[str]] = [set() for _ in range(k)]
    for node_id, fragment_index in owner.items():
        interiors[fragment_index].add(node_id)
    fragments: list[Fragment] = []
    for index in range(k):
        interior = interiors[index]
        border_owner: dict[str, int] = {}
        for node_id in interior:
            for neighbor in graph.successors(node_id) | graph.predecessors(node_id):
                if neighbor not in interior:
                    border_owner[neighbor] = owner[neighbor]
        local = graph.induced_subgraph(interior | set(border_owner))
        fragments.append(Fragment(index, local, interior, border_owner))
    fragmentation = Fragmentation(fragments, owner, mode, graph.version)
    sink = _metrics.sink()
    if sink.enabled:
        sink.incr("fragment.partitions_built")
        _record_partition_quality(sink, fragmentation)
    return fragmentation


def _record_partition_quality(sink, fragmentation: "Fragmentation") -> None:
    """Gauge the partition-quality signals: border-replica share, cut
    edges, and interior balance (what a repartitioning trigger would
    read)."""
    nodes = len(fragmentation.owner)
    replicas = fragmentation.replicated_nodes()
    sink.gauge("fragment.border_replica_share", replicas / nodes if nodes else 0.0)
    sink.gauge("fragment.cut_edges", float(fragmentation.cut_edges()))
    interiors = [len(fragment.interior) for fragment in fragmentation.fragments]
    top = max(interiors, default=0)
    sink.gauge(
        "fragment.balance", (sum(interiors) / len(interiors)) / top if top else 1.0
    )


# ----------------------------------------------------------------------
# Update routing (border-replica coherence)
# ----------------------------------------------------------------------


@dataclass
class RoutedUpdate:
    """One batch, sliced per fragment, plus the bookkeeping deltas.

    ``slices[f]`` carries exactly what fragment f must apply: its own
    operations plus coherence traffic (replica creation/retirement,
    attribute fan-out, completion edges).  ``owner_added`` /
    ``owner_removed`` are the owner-map deltas; ``replicas_added`` /
    ``replicas_removed`` list (fragment, node, owner) replica changes.
    """

    slices: list[GraphUpdate]
    owner_added: dict[str, int]
    owner_removed: set[str]
    replicas_added: list[tuple[int, str, int]]
    replicas_removed: list[tuple[int, str]]

    def total_operations(self) -> int:
        """Summed slice sizes — what the fragment-routed replication
        log actually ships, versus ``k × update.size()`` for full
        replication."""
        return sum(update_slice.size() for update_slice in self.slices)


def _incident_edges(local: Graph, node_id: str) -> set[Edge]:
    return set(local.out_edges(node_id)) | set(local.in_edges(node_id))


def route_update(fragmented: "FragmentedGraph", update: GraphUpdate) -> RoutedUpdate:
    """Slice one (globally valid) batch into per-fragment sub-batches.

    The update must already be valid against the facade's current state
    (:meth:`FragmentedGraph.apply_update` validates before routing).
    Routing never mutates; it reads the pre-state and simulates the
    post-state adjacency of the affected nodes to compute replica
    coherence.
    """
    fragments = fragmented.fragmentation.fragments
    owner = fragmented.fragmentation.owner
    k = len(fragments)

    del_node_set = set(update.del_nodes)
    new_entries = {node_id: (label, dict(attrs or {})) for node_id, label, attrs in update.nodes}

    # -- post-state ownership ------------------------------------------
    owner_added: dict[str, int] = {}
    members = [len(fragment.interior) for fragment in fragments]
    for node_id in del_node_set:
        if node_id not in new_entries:
            members[owner[node_id]] -= 1
    for node_id in new_entries:
        if node_id in owner:  # replace: identity keeps its fragment
            owner_added[node_id] = owner[node_id]
        elif fragmented.fragmentation.mode == "hash":
            owner_added[node_id] = _hash_owner(node_id, k)
            members[owner_added[node_id]] += 1
        else:  # greedy: emptiest fragment, smallest index on ties
            best = min(range(k), key=lambda f: (members[f], f))
            owner_added[node_id] = best
            members[best] += 1

    def owner_post(node_id: str) -> int:
        got = owner_added.get(node_id)
        return owner[node_id] if got is None else got

    def exists_post(node_id: str) -> bool:
        if node_id in new_entries:
            return True
        return node_id in owner and node_id not in del_node_set

    # -- affected nodes and their post-state adjacency -----------------
    affected: set[str] = set(new_entries)
    for source, _, target in update.edges:
        affected.add(source)
        affected.add(target)
    for source, _, target in update.del_edges:
        affected.add(source)
        affected.add(target)
    pre_neighbors_of_deleted: dict[str, set[Edge]] = {}
    for node_id in del_node_set:
        affected.add(node_id)
        incident = _incident_edges(fragments[owner[node_id]].graph, node_id)
        pre_neighbors_of_deleted[node_id] = incident
        for source, _, target in incident:
            affected.add(source)
            affected.add(target)

    del_edge_set = set(update.del_edges)
    post_edges: dict[str, set[Edge]] = {}
    for node_id in affected:
        if not exists_post(node_id):
            continue
        if node_id in owner and node_id not in del_node_set:
            edges = _incident_edges(fragments[owner[node_id]].graph, node_id)
            edges -= del_edge_set
            # A node deletion cascades its incident edges even when the
            # same id is re-added in this batch ("replace") — only the
            # batch's own edge additions can resurrect them.
            edges = {
                edge
                for edge in edges
                if edge[0] not in del_node_set and edge[2] not in del_node_set
            }
        else:
            edges = set()  # brand-new or replaced node: only batch edges
        for edge in update.edges:
            if node_id in (edge[0], edge[2]):
                edges.add(edge)
        post_edges[node_id] = edges

    # -- replication diff ----------------------------------------------
    def required_post(node_id: str, fragment_index: int) -> bool:
        if owner_post(node_id) == fragment_index:
            return True
        for source, _, target in post_edges[node_id]:
            other = target if source == node_id else source
            if other != node_id and owner_post(other) == fragment_index:
                return True
        return False

    presence_post: dict[tuple[str, int], bool] = {}
    replicas_added: list[tuple[int, str, int]] = []
    replicas_removed: list[tuple[int, str]] = []
    newly_present: list[list[str]] = [[] for _ in range(k)]
    dropped_replicas: list[list[str]] = [[] for _ in range(k)]
    for node_id in sorted(affected):
        for fragment_index in range(k):
            pre_present = fragments[fragment_index].graph.has_node(node_id)
            post_present = exists_post(node_id) and required_post(node_id, fragment_index)
            presence_post[(node_id, fragment_index)] = post_present
            if post_present and (not pre_present or node_id in del_node_set):
                newly_present[fragment_index].append(node_id)
                if owner_post(node_id) != fragment_index:
                    replicas_added.append((fragment_index, node_id, owner_post(node_id)))
            elif pre_present and not post_present:
                if node_id not in del_node_set:
                    # Replica retirement of a *surviving* node (global
                    # deletions are routed as the batch's own del_nodes).
                    dropped_replicas[fragment_index].append(node_id)
                    replicas_removed.append((fragment_index, node_id))
                elif node_id in new_entries:
                    # Replaced (delete + re-add) but no longer required
                    # here: the routed del_nodes entry already removes
                    # the old replica from this fragment's graph, and
                    # the replace keeps the id out of owner_removed —
                    # so the border bookkeeping must retire it here.
                    replicas_removed.append((fragment_index, node_id))

    def present_post(node_id: str, fragment_index: int) -> bool:
        got = presence_post.get((node_id, fragment_index))
        if got is not None:
            return got
        return fragments[fragment_index].graph.has_node(node_id)

    # -- per-fragment slices -------------------------------------------
    global_del_attrs: dict[str, list[str]] = {}
    for node_id, attr in update.del_attrs:
        global_del_attrs.setdefault(node_id, []).append(attr)

    def replica_payload(node_id: str) -> tuple[str, str, dict[str, Value]]:
        """(id, label, attrs) for a coherence-created replica.

        Attrs are the node's pre-state values minus the batch's
        deletions; the batch's attribute *writes* are routed to every
        post-state holder, so they land on the new replica too.
        """
        if node_id in new_entries and (node_id not in owner or node_id in del_node_set):
            label, attrs = new_entries[node_id]
            return (node_id, label, dict(attrs))
        node = fragments[owner[node_id]].graph.node(node_id)
        attrs = dict(node.attributes)
        for attr in global_del_attrs.get(node_id, ()):
            attrs.pop(attr, None)
        return (node_id, node.label, attrs)

    slices: list[GraphUpdate] = []
    for fragment_index in range(k):
        local = fragments[fragment_index].graph
        slice_del_edges = [edge for edge in update.del_edges if local.has_edge(*edge)]
        slice_del_attrs = [
            (node_id, attr)
            for node_id, attr in update.del_attrs
            if local.has_node(node_id)
        ]
        slice_del_nodes = [
            node_id for node_id in update.del_nodes if local.has_node(node_id)
        ] + dropped_replicas[fragment_index]
        slice_nodes = [
            replica_payload(node_id) for node_id in newly_present[fragment_index]
        ]
        slice_attrs = [
            (node_id, attr, value)
            for node_id, attr, value in update.attrs
            if present_post(node_id, fragment_index)
        ]
        slice_edges: list[Edge] = []
        seen_edges: set[Edge] = set()
        for edge in update.edges:
            if (
                present_post(edge[0], fragment_index)
                and present_post(edge[2], fragment_index)
                and edge not in seen_edges
            ):
                seen_edges.add(edge)
                slice_edges.append(edge)
        # Completion edges: a fresh replica must arrive with every
        # surviving pre-existing edge it has into this fragment, or the
        # induced-subgraph closure (and with it ball-completeness) breaks.
        for node_id in newly_present[fragment_index]:
            for edge in sorted(post_edges[node_id]):
                if (
                    edge not in seen_edges
                    and present_post(edge[0], fragment_index)
                    and present_post(edge[2], fragment_index)
                ):
                    seen_edges.add(edge)
                    slice_edges.append(edge)
        slices.append(
            GraphUpdate(
                nodes=slice_nodes,
                edges=slice_edges,
                attrs=slice_attrs,
                del_nodes=slice_del_nodes,
                del_edges=slice_del_edges,
                del_attrs=slice_del_attrs,
            )
        )

    owner_removed = {
        node_id for node_id in del_node_set if node_id not in new_entries
    }
    return RoutedUpdate(slices, owner_added, owner_removed, replicas_added, replicas_removed)


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------


class FragmentedGraph:
    """A partitioned graph answering the whole-graph read API.

    Every probe routes to the **owner** fragment of the node involved:
    the owner's induced subgraph holds the node's complete adjacency
    (any neighbor is interior or border there), so one fragment always
    suffices.  Node order is canonical (sorted ids) rather than
    insertion order — every consumer that needs determinism sorts
    anyway (the matcher sorts its scanned pools by id).

    Mutation goes through :meth:`apply_update` only, which routes the
    batch per fragment (:func:`route_update`) and applies each slice via
    the index-maintaining path, keeping per-fragment indexes synced.
    """

    def __init__(self, fragmentation: Fragmentation):
        self.fragmentation = fragmentation
        self._version = 0

    @classmethod
    def partition(
        cls,
        graph: Graph,
        k: int,
        mode: str = "hash",
        *,
        indexed: bool = False,
    ) -> "FragmentedGraph":
        """Partition ``graph`` and wrap the result; ``indexed=True``
        attaches (and thereafter maintains) one index per fragment."""
        fragmentation = partition_graph(graph, k, mode)
        fragmented = cls(fragmentation)
        if indexed:
            fragmented.attach_indexes()
        return fragmented

    def attach_indexes(self) -> None:
        """Build per-fragment :mod:`repro.indexing` bundles (idempotent:
        rebuilds replace any stale ones)."""
        from repro.indexing.registry import attach_index

        for fragment in self.fragmentation.fragments:
            attach_index(fragment.graph)
        self.fragmentation.indexed = True

    # -- routing helpers -----------------------------------------------
    @property
    def fragments(self) -> list[Fragment]:
        return self.fragmentation.fragments

    def _owner_graph(self, node_id: str) -> Graph:
        return self.fragmentation.fragment_of(node_id).graph

    # -- the Graph read API --------------------------------------------
    @property
    def version(self) -> int:
        """Facade mutation counter (bumped once per applied batch)."""
        return self._version

    def node(self, node_id: str) -> Node:
        return self._owner_graph(node_id).node(node_id)

    def has_node(self, node_id: str) -> bool:
        return node_id in self.fragmentation.owner

    def has_edge(self, source: str, label: str, target: str) -> bool:
        fragment_index = self.fragmentation.owner.get(source)
        if fragment_index is None:
            return False
        return self.fragmentation.fragments[fragment_index].graph.has_edge(
            source, label, target
        )

    @property
    def node_ids(self) -> list[str]:
        """Node ids in canonical (sorted) order."""
        return sorted(self.fragmentation.owner)

    @property
    def nodes(self) -> list[Node]:
        return [self.node(node_id) for node_id in self.node_ids]

    @property
    def edges(self) -> set[Edge]:
        owner = self.fragmentation.owner
        return {
            edge
            for fragment in self.fragmentation.fragments
            for edge in fragment.graph.edges
            if owner[edge[0]] == fragment.index
        }

    def nodes_with_label(self, label: str) -> set[str]:
        owner = self.fragmentation.owner
        return {
            node_id
            for fragment in self.fragmentation.fragments
            for node_id in fragment.graph.nodes_with_label(label)
            if owner[node_id] == fragment.index
        }

    @property
    def labels(self) -> set[str]:
        result: set[str] = set()
        for fragment in self.fragmentation.fragments:
            result |= fragment.graph.labels
        return result

    @property
    def edge_labels(self) -> set[str]:
        result: set[str] = set()
        for fragment in self.fragmentation.fragments:
            result |= fragment.graph.edge_labels
        return result

    def successors(self, node_id: str, label: str | None = None) -> set[str]:
        return self._owner_graph(node_id).successors(node_id, label)

    def predecessors(self, node_id: str, label: str | None = None) -> set[str]:
        return self._owner_graph(node_id).predecessors(node_id, label)

    def out_row(self, node_id: str, label: str):
        return self._owner_graph(node_id).out_row(node_id, label)

    def in_row(self, node_id: str, label: str):
        return self._owner_graph(node_id).in_row(node_id, label)

    def out_edges(self, node_id: str) -> Iterator[Edge]:
        return self._owner_graph(node_id).out_edges(node_id)

    def in_edges(self, node_id: str) -> Iterator[Edge]:
        return self._owner_graph(node_id).in_edges(node_id)

    def out_degree(self, node_id: str, label: str | None = None) -> int:
        return self._owner_graph(node_id).out_degree(node_id, label)

    def in_degree(self, node_id: str, label: str | None = None) -> int:
        return self._owner_graph(node_id).in_degree(node_id, label)

    @property
    def num_nodes(self) -> int:
        return len(self.fragmentation.owner)

    @property
    def num_edges(self) -> int:
        owner = self.fragmentation.owner
        return sum(
            1
            for fragment in self.fragmentation.fragments
            for edge in fragment.graph.edges
            if owner[edge[0]] == fragment.index
        )

    def size(self) -> int:
        """|G| = nodes + edges + attribute entries, counted once each
        (replicas excluded)."""
        attrs = sum(len(self.node(node_id).attributes) for node_id in self.fragmentation.owner)
        return self.num_nodes + self.num_edges + attrs

    def to_graph(self) -> Graph:
        """Reassemble one monolithic :class:`Graph` (tests, escalation
        fallbacks, export)."""
        result = Graph()
        for node_id in self.node_ids:
            node = self.node(node_id)
            result.add_node(node.id, node.label, node.attributes)
        for source, label, target in sorted(self.edges):
            result.add_edge(source, label, target)
        return result

    # -- mutation ------------------------------------------------------
    def apply_update(self, update: GraphUpdate) -> RoutedUpdate:
        """Validate, route, and apply one batch across the fragments.

        Returns the :class:`RoutedUpdate` (the per-fragment replication
        log entries) so callers — the streaming layer — can ship each
        slice to its fragment-resident worker instead of replicating the
        whole batch everywhere.
        """
        from repro.indexing.maintenance import apply_update_indexed

        validate_update(self, update)  # atomic: reject before any slice lands
        routed = route_update(self, update)
        fragmentation = self.fragmentation
        for fragment, update_slice in zip(fragmentation.fragments, routed.slices):
            if not update_slice.is_empty():
                apply_update_indexed(fragment.graph, update_slice)
        # -- bookkeeping ----------------------------------------------
        for node_id in routed.owner_removed:
            former = fragmentation.owner.pop(node_id)
            fragmentation.fragments[former].interior.discard(node_id)
            for fragment in fragmentation.fragments:
                fragment.border_owner.pop(node_id, None)
        for node_id, fragment_index in routed.owner_added.items():
            fragmentation.owner[node_id] = fragment_index
            fragmentation.fragments[fragment_index].interior.add(node_id)
        for fragment_index, node_id in routed.replicas_removed:
            fragmentation.fragments[fragment_index].border_owner.pop(node_id, None)
        for fragment_index, node_id, owner_index in routed.replicas_added:
            fragmentation.fragments[fragment_index].border_owner[node_id] = owner_index
        self._version += 1
        sink = _metrics.sink()
        if sink.enabled:
            sink.incr("fragment.route.batches")
            sink.incr("fragment.route.ops_routed", routed.total_operations())
            sink.incr("fragment.route.ops_full", fragmentation.k * update.size())
            sink.incr("fragment.route.replicas_added", len(routed.replicas_added))
            sink.incr("fragment.route.replicas_removed", len(routed.replicas_removed))
            nodes = len(fragmentation.owner)
            sink.gauge(
                "fragment.border_replica_share",
                fragmentation.replicated_nodes() / nodes if nodes else 0.0,
            )
        return routed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FragmentedGraph(k={self.fragmentation.k}, nodes={self.num_nodes}, "
            f"mode={self.fragmentation.mode!r}, v={self._version})"
        )


# ----------------------------------------------------------------------
# Fragmentation registry (read-only consumers: the fragment backend)
# ----------------------------------------------------------------------

# Identity-keyed weak registry (same scheme as repro.indexing.registry):
# fragmentations are snapshots, so any graph mutation — version mismatch
# — retires the cached partition wholesale.
_fragmentations: WeakIdRegistry = WeakIdRegistry()


def get_fragments(
    graph: Graph,
    k: int,
    mode: str = "hash",
    *,
    ensure_indexes: bool | None = None,
) -> Fragmentation:
    """The cached partition of ``graph`` into ``k`` fragments.

    Rebuilt when the graph version moved or no (k, mode) entry exists.
    ``ensure_indexes`` mirrors the coordinator's index decision onto the
    fragments: ``None`` follows whether the *graph* has a synced index
    attached, ``True``/``False`` force it.  Cached fragmentations are
    read-only mirrors — mutate the graph and the cache retires itself.
    """
    from repro.indexing.registry import get_index

    entries: dict[tuple[int, str], Fragmentation] | None = _fragmentations.get(graph)
    if entries is None:
        entries = {}
        _fragmentations.set(graph, entries)
    fragmentation = entries.get((k, mode))
    if fragmentation is None or fragmentation.source_version != graph.version:
        _metrics.sink().incr("fragment.cache.builds")
        fragmentation = partition_graph(graph, k, mode)
        entries[(k, mode)] = fragmentation
    else:
        _metrics.sink().incr("fragment.cache.hits")
    want_indexes = (
        get_index(graph) is not None if ensure_indexes is None else ensure_indexes
    )
    if want_indexes and not fragmentation.indexed:
        from repro.indexing.registry import attach_index

        for fragment in fragmentation.fragments:
            attach_index(fragment.graph)
        fragmentation.indexed = True
    return fragmentation


def fragment_stats(fragmentation: Fragmentation) -> dict[str, object]:
    """Summary numbers for one partition (CLI / bench reporting)."""
    per_fragment = [
        {
            "fragment": fragment.index,
            "interior": len(fragment.interior),
            "border": len(fragment.border_owner),
            "local_nodes": fragment.graph.num_nodes,
            "local_edges": fragment.graph.num_edges,
        }
        for fragment in fragmentation.fragments
    ]
    interiors = [len(fragment.interior) for fragment in fragmentation.fragments]
    balance = (
        (sum(interiors) / len(interiors)) / max(interiors) if max(interiors, default=0) else 1.0
    )
    return {
        "k": fragmentation.k,
        "mode": fragmentation.mode,
        "cut_edges": fragmentation.cut_edges(),
        "replicated_nodes": fragmentation.replicated_nodes(),
        "balance": balance,
        "fragments": per_fragment,
    }


__all__ = [
    "PARTITION_MODES",
    "Fragment",
    "FragmentedGraph",
    "Fragmentation",
    "RoutedUpdate",
    "fragment_stats",
    "get_fragments",
    "partition_graph",
    "route_update",
]
