"""Interned CSR graph views — the shared substrate of compiled matching.

A :class:`GraphView` freezes one ``(graph, version)`` into the form the
plan executor (:mod:`repro.matching.plan`) wants to search over:

* **dense interned node ids** — every node id string gets one integer
  slot, assigned in *canonical* (sorted-by-string) order.  Canonical
  interning makes integer order coincide with string order, so the plan
  executor's ascending-slot enumeration reproduces the seed matcher's
  ``sorted(candidates)`` byte for byte — and it makes slots portable:
  two processes interning the same node set (the engine coordinator and
  its snapshot-rebuilt workers) assign identical slots, which is what
  lets compiled candidate pools ride the broadcast payload;
* **interned node labels** — a small label pool plus one label slot per
  node (``labels`` / ``label_of``), and the per-label candidate pools
  as sorted slot tuples;
* **CSR adjacency per edge label** — for each direction and edge label,
  an ``indptr``/``indices`` pair of ``array('I')`` columns (rows sorted
  ascending), plus a deduplicated *any-label* CSR for wildcard pattern
  edges.  Rows probed during search are materialized once into a
  ``frozenset`` cache, so constraint checks are C-speed set
  intersections instead of per-call successor-set copies.

Views are cached in a process-wide weak registry keyed by graph
*identity* (the same scheme as :mod:`repro.indexing.registry`) and
guarded by the graph's mutation counter: any mutation retires the view
— and with it every compiled plan it holds — so plan-cache
invalidation is exactly "the graph version moved".
"""

from __future__ import annotations

from array import array

from repro.graph.graph import Graph
from repro.utils.registry import WeakIdRegistry

#: One CSR direction: ``label -> (indptr, indices)`` (plus the any-label
#: union under the key ``None``).
CsrColumns = tuple[array, array]


class GraphView:
    """One graph, frozen into interned flat-array form (build with
    :func:`build_view`; instances are immutable once built)."""

    __slots__ = (
        "version",
        "num_nodes",
        "num_edges",
        "node_of",
        "slot_of",
        "labels",
        "label_of",
        "pools_by_label",
        "out_csr",
        "in_csr",
        "_rows",
        "plans",
        "plan_compiles",
        "plan_installs",
        "cost_profile",
    )

    def __init__(self) -> None:
        self.version: int = -1
        self.num_nodes: int = 0
        self.num_edges: int = 0
        self.node_of: tuple[str, ...] = ()  # slot -> node id (canonical order)
        self.slot_of: dict[str, int] = {}  # node id -> slot
        self.labels: tuple[str, ...] = ()  # interned node-label pool
        self.label_of: array = array("I")  # slot -> index into ``labels``
        self.pools_by_label: dict[str, tuple[int, ...]] = {}
        self.out_csr: dict[str | None, CsrColumns] = {}
        self.in_csr: dict[str | None, CsrColumns] = {}
        self._rows: dict[tuple[bool, str | None, int], frozenset[int]] = {}
        # Compiled-plan cache, keyed (pattern, index-attached?).  Plans
        # die with the view: a graph mutation replaces the view, so no
        # per-plan invalidation protocol is needed.
        self.plans: dict[tuple[object, bool], object] = {}
        self.plan_compiles: int = 0  # plans compiled from candidate sets
        self.plan_installs: int = 0  # plans installed from a broadcast payload
        # The cost model's selectivity statistics, computed lazily once
        # per view (they depend only on (graph, version) — the indexed
        # and edge-scan derivations agree on every count).
        self.cost_profile: object | None = None

    # ------------------------------------------------------------------
    # Row access (the executor's only adjacency probe)
    # ------------------------------------------------------------------
    def row_set(self, out_dir: bool, label: str | None, slot: int) -> frozenset[int]:
        """The adjacency row as a frozenset of slots.

        ``out_dir`` selects successors vs predecessors; ``label=None``
        is the wildcard (any-label, deduplicated) row.  Rows are built
        lazily from the CSR columns and cached — the search only pays
        for the neighborhoods it actually visits.
        """
        key = (out_dir, label, slot)
        row = self._rows.get(key)
        if row is None:
            csr = (self.out_csr if out_dir else self.in_csr).get(label)
            if csr is None:
                row = frozenset()
            else:
                indptr, indices = csr
                row = frozenset(indices[indptr[slot] : indptr[slot + 1]])
            self._rows[key] = row
        return row

    def degree(self, out_dir: bool, label: str | None, slot: int) -> int:
        """Per-label degree straight from the CSR index pointers."""
        csr = (self.out_csr if out_dir else self.in_csr).get(label)
        if csr is None:
            return 0
        indptr = csr[0]
        return indptr[slot + 1] - indptr[slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphView(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"v={self.version}, plans={len(self.plans)})"
        )


def _to_csr(n: int, rows: dict[int, list[int]]) -> CsrColumns:
    """Pack ``slot -> sorted neighbor list`` into indptr/indices columns."""
    indptr = array("I", [0])
    indices = array("I")
    for slot in range(n):
        row = rows.get(slot)
        if row:
            indices.extend(row)
        indptr.append(len(indices))
    return indptr, indices


def build_view(graph: Graph) -> GraphView:
    """Intern ``graph`` into a fresh :class:`GraphView` (one node scan
    plus one edge scan; rows sorted once at build)."""
    view = GraphView()
    view.version = graph.version
    order = sorted(graph.node_ids)
    view.num_nodes = len(order)
    view.node_of = tuple(order)
    slot_of = {node_id: slot for slot, node_id in enumerate(order)}
    view.slot_of = slot_of

    label_slots: dict[str, int] = {}
    label_of = array("I")
    pools: dict[str, list[int]] = {}
    for slot, node_id in enumerate(order):
        label = graph.node(node_id).label
        label_slot = label_slots.setdefault(label, len(label_slots))
        label_of.append(label_slot)
        pools.setdefault(label, []).append(slot)
    view.labels = tuple(label_slots)
    view.label_of = label_of
    # Pools appended in ascending slot order — already sorted.
    view.pools_by_label = {label: tuple(slots) for label, slots in pools.items()}

    out_rows: dict[str, dict[int, list[int]]] = {}
    in_rows: dict[str, dict[int, list[int]]] = {}
    any_out: dict[int, list[int]] = {}
    any_in: dict[int, list[int]] = {}
    edges = sorted(graph.edges)  # (source, label, target) ascending
    view.num_edges = len(edges)
    for source, label, target in edges:
        s, t = slot_of[source], slot_of[target]
        out_rows.setdefault(label, {}).setdefault(s, []).append(t)
        in_rows.setdefault(label, {}).setdefault(t, []).append(s)
        any_out.setdefault(s, []).append(t)
        any_in.setdefault(t, []).append(s)
    n = view.num_nodes
    # Per-(label, node) rows land pre-sorted: canonical interning makes
    # slot order string order, and the ascending (source, label, target)
    # edge sweep therefore appends each out-row's targets and each
    # in-row's sources in ascending slot order.
    for label, rows in out_rows.items():
        view.out_csr[label] = _to_csr(n, rows)
    for label, rows in in_rows.items():
        view.in_csr[label] = _to_csr(n, rows)
    # Any-label union rows (wildcard pattern edges) interleave labels,
    # so they do need a sort — and a dedup (parallel edges).
    for rows, bucket in ((any_out, view.out_csr), (any_in, view.in_csr)):
        deduped = {slot: sorted(set(row)) for slot, row in rows.items()}
        bucket[None] = _to_csr(n, deduped)
    return view


# Identity-keyed weak registry (see repro.utils.registry): probes are
# O(1) integer lookups, entries die with their graphs, and a view holds
# no strong reference back to its graph.
_views: WeakIdRegistry = WeakIdRegistry()


def get_view(graph: Graph) -> GraphView:
    """The current view for ``graph``, rebuilding on version mismatch."""
    view = _views.get(graph)
    if view is None or view.version != graph.version:
        view = build_view(graph)
        _views.set(graph, view)
    return view


def peek_view(graph: Graph) -> GraphView | None:
    """The registered view if it is still in sync, else ``None`` (tests
    and stats; never builds)."""
    view = _views.get(graph)
    if view is None or view.version != graph.version:
        return None
    return view


__all__ = ["GraphView", "build_view", "get_view", "peek_view"]
