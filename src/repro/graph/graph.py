"""The property-graph substrate (Section 2 of the paper).

A graph ``G = (V, E, L, F_A)`` has

* a finite set ``V`` of nodes, each with a unique identity (``node.id``),
* a finite set ``E ⊆ V × Γ × V`` of directed labeled edges,
* a label ``L(v)`` from Γ on every node, and
* a finite attribute tuple ``F_A(v) = (A1 = a1, ..., An = an)`` on every
  node; attributes are schemaless — any node may carry any attributes.

``id`` is the node identity and is *not* an ordinary attribute: literals
may compare ``x.id = y.id`` but may not assign constants to it, and
:meth:`Node.attributes` never contains an ``id`` key.

The class keeps adjacency indexes (by direction and by edge label) and a
node-label index so the homomorphism matcher can compute candidate sets
without scanning the whole graph.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence, Set as AbstractSet
from itertools import chain, count, filterfalse
from operator import attrgetter, itemgetter, mul

from repro.errors import GraphError

#: Reserved attribute name for node identity (Section 2: "each node v has
#: a special attribute id denoting its node identity").
ID_ATTRIBUTE = "id"

Value = Hashable
Edge = tuple[str, str, str]

#: Shared empty adjacency row (returned by the read-only row accessors
#: for absent labels; frozen so accidental mutation fails loudly).
_EMPTY_ROW: frozenset = frozenset()

_LABEL = attrgetter("label")
_ATTRS = attrgetter("_attrs")
_FIRST, _SECOND, _THIRD = itemgetter(0), itemgetter(1), itemgetter(2)

#: Key type of an unhashable value in :meth:`Graph.to_columns`'s pool:
#: ``(_UNHASHABLE, i)`` stands for the i-th attribute value.
_UNHASHABLE = object()


def _typed(column: Iterable) -> Iterator[tuple]:
    """``(type, value)`` pool keys of ``column``."""
    return zip(map(type, column), column)


def _pool_keys(values: list) -> tuple[list, list[int]]:
    """``(type, value)`` keys of ``values``, and the positions of the
    unhashable ones, each keyed ``(_UNHASHABLE, position)`` instead."""
    keys = list(_typed(values))
    unhashable = []
    for position, key in enumerate(keys):
        try:
            hash(key)
        except TypeError:
            keys[position] = (_UNHASHABLE, position)
            unhashable.append(position)
    return keys, unhashable


def _lookup(table: Sequence, column: Sequence[int], name: str, what: str | None = None) -> list:
    """``[table[i] for i in column]``, refusing any ``i`` outside
    ``range(len(table))`` (a negative one would wrap silently).  With
    ``what``, each distinct ``table[i]`` must be a non-empty string."""
    try:
        distinct = set(column)
        if distinct and (min(distinct) < 0 or max(distinct) >= len(table)):
            raise IndexError
        values = list(map(table.__getitem__, column))
    except (IndexError, TypeError):
        raise GraphError(f"{name} holds an index outside range({len(table)})") from None
    if what is not None:
        for i in distinct:
            if not isinstance(table[i], str) or not table[i]:
                raise GraphError(f"{what} must be a non-empty string, got {table[i]!r}")
    return values


class Node:
    """A graph node: identity, label, and a schemaless attribute tuple."""

    __slots__ = ("id", "label", "_attrs")

    def __init__(self, node_id: str, label: str, attrs: Mapping[str, Value] | None = None):
        if not isinstance(node_id, str) or not node_id:
            raise GraphError(f"node id must be a non-empty string, got {node_id!r}")
        if not isinstance(label, str) or not label:
            raise GraphError(f"node label must be a non-empty string, got {label!r}")
        self.id = node_id
        self.label = label
        self._attrs: dict[str, Value] = {}
        if attrs:
            for name, value in attrs.items():
                self._set_attr(name, value)

    def _set_attr(self, name: str, value: Value) -> None:
        if name == ID_ATTRIBUTE:
            raise GraphError("'id' is the reserved node identity, not a settable attribute")
        if not isinstance(name, str) or not name:
            raise GraphError(f"attribute name must be a non-empty string, got {name!r}")
        self._attrs[name] = value

    def _del_attr(self, name: str) -> None:
        if name not in self._attrs:
            raise GraphError(f"node {self.id!r} has no attribute {name!r}")
        del self._attrs[name]

    @property
    def attributes(self) -> Mapping[str, Value]:
        """Read-only view of the node's attribute tuple (without ``id``)."""
        return dict(self._attrs)

    def has_attribute(self, name: str) -> bool:
        return name in self._attrs

    def get(self, name: str, default: Value | None = None) -> Value | None:
        return self._attrs.get(name, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.id!r}, label={self.label!r}, attrs={self._attrs!r})"


class Graph:
    """A finite directed labeled graph with node attributes.

    Nodes are addressed by their string identity.  Edges are triples
    ``(source_id, label, target_id)``; parallel edges with distinct
    labels are allowed, duplicate triples are idempotent (``E`` is a
    set, exactly as in the paper).
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        # Edge table: a dict used as an insertion-ordered set, like the
        # node table, so encodings list edges without sorting them.
        self._edges: dict[Edge, None] = {}
        # Adjacency indexes:  src -> label -> {dst}  and  dst -> label -> {src}
        self._out: dict[str, dict[str, set[str]]] = {}
        self._in: dict[str, dict[str, set[str]]] = {}
        # Node-label index: label -> {node ids}
        self._by_label: dict[str, set[str]] = {}
        # Mutation counter: bumped on every effective change through the
        # Graph API.  External index structures (repro.indexing) record
        # the version they were built against and treat a mismatch as
        # "stale — fall back to unindexed behavior".
        self._version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: str,
        label: str,
        attrs: Mapping[str, Value] | None = None,
        **kw_attrs: Value,
    ) -> Node:
        """Add a node.  ``attrs`` and keyword attributes are merged.

        Re-adding an existing id is an error: node identity is immutable
        (merging nodes is the chase's job, via coercion, never done in
        place on a graph).
        """
        if node_id in self._nodes:
            raise GraphError(f"node {node_id!r} already exists")
        merged: dict[str, Value] = dict(attrs) if attrs else {}
        merged.update(kw_attrs)
        node = Node(node_id, label, merged)
        self._nodes[node_id] = node
        self._out[node_id] = {}
        self._in[node_id] = {}
        self._by_label.setdefault(label, set()).add(node_id)
        self._version += 1
        return node

    def add_edge(self, source: str, label: str, target: str) -> Edge:
        """Add the edge ``(source, label, target)``; idempotent."""
        if source not in self._nodes:
            raise GraphError(f"edge source {source!r} is not a node")
        if target not in self._nodes:
            raise GraphError(f"edge target {target!r} is not a node")
        if not isinstance(label, str) or not label:
            raise GraphError(f"edge label must be a non-empty string, got {label!r}")
        edge = (source, label, target)
        if edge not in self._edges:
            self._edges[edge] = None
            self._out[source].setdefault(label, set()).add(target)
            self._in[target].setdefault(label, set()).add(source)
            self._version += 1
        return edge

    def set_attribute(self, node_id: str, name: str, value: Value) -> None:
        """Set (or overwrite) one attribute on an existing node."""
        self.node(node_id)._set_attr(name, value)
        self._version += 1

    @classmethod
    def from_columns(
        cls,
        pool: Sequence[Value],
        node_ids: Sequence[int],
        node_labels: Sequence[int],
        attr_node: Sequence[int],
        attr_name: Sequence[int],
        attr_value: Sequence[int],
        edge_src: Sequence[int],
        edge_label: Sequence[int],
        edge_dst: Sequence[int],
    ) -> "Graph":
        """Build a graph in bulk from interned columns.

        The layout is that of :meth:`to_columns`: ``pool``
        holds the values; ``node_ids``, ``node_labels``, ``attr_name``,
        ``attr_value`` and ``edge_label`` hold slots into it;
        ``attr_node``, ``edge_src`` and ``edge_dst`` hold positions in
        ``node_ids``.  The result equals adding the nodes, then setting
        the attributes, then adding the edges one call at a time — same
        node order, same rows, same :attr:`version` — but the tables are
        filled directly and each distinct slot is checked once.  A
        malformed input (ragged column group, out-of-range slot or
        position, or a value the per-element calls would refuse) raises
        :class:`GraphError`.
        """
        n = len(node_ids)
        if len(node_labels) != n:
            raise GraphError(
                f"node_ids and node_labels differ in length ({n} vs {len(node_labels)})"
            )
        if not len(attr_node) == len(attr_name) == len(attr_value):
            raise GraphError("attr_node, attr_name and attr_value differ in length")
        if not len(edge_src) == len(edge_label) == len(edge_dst):
            raise GraphError("edge_src, edge_label and edge_dst differ in length")
        ids = _lookup(pool, node_ids, "node_ids", "node id")
        labels = _lookup(pool, node_labels, "node_labels", "node label")
        names = _lookup(pool, attr_name, "attr_name", "attribute name")
        if ID_ATTRIBUTE in names:
            raise GraphError("'id' is the reserved node identity, not a settable attribute")
        values = _lookup(pool, attr_value, "attr_value")
        edge_labels = _lookup(pool, edge_label, "edge_label", "edge label")
        sources = _lookup(ids, edge_src, "edge_src")
        targets = _lookup(ids, edge_dst, "edge_dst")

        graph = cls()
        nodes = graph._nodes
        by_label = graph._by_label
        tables: list[dict[str, Value]] = []
        new_node = Node.__new__
        for node_id, label in zip(ids, labels):
            node = new_node(Node)
            node.id = node_id
            node.label = label
            node._attrs = attrs = {}
            tables.append(attrs)
            nodes[node_id] = node
            members = by_label.get(label)
            if members is None:
                by_label[label] = {node_id}
            else:
                members.add(node_id)
        if len(nodes) != n:
            seen: set[str] = set()
            for node_id in ids:
                if node_id in seen:
                    raise GraphError(f"node {node_id!r} already exists")
                seen.add(node_id)
        for attrs, name, value in zip(_lookup(tables, attr_node, "attr_node"), names, values):
            attrs[name] = value

        out = graph._out = {node_id: {} for node_id in ids}
        into = graph._in = {node_id: {} for node_id in ids}
        rows = list(zip(sources, edge_labels, targets))
        # Row order, duplicates included: a repeated row adds nothing to
        # a set, so every table ends up exactly as add_edge leaves it.
        for source, label, target in rows:
            row = out[source]
            members = row.get(label)
            if members is None:
                row[label] = {target}
            else:
                members.add(target)
            row = into[target]
            members = row.get(label)
            if members is None:
                row[label] = {source}
            else:
                members.add(source)
        graph._edges = dict.fromkeys(rows)
        graph._version = n + len(attr_node) + len(graph._edges)
        return graph

    def to_columns(self) -> tuple[list, array, array, array, array, array, array, array, array]:
        """Encode the graph as interned columns, in the argument order of
        :meth:`from_columns`, which rebuilds it with the same node,
        attribute and edge order.

        ``pool`` holds each distinct value once, keyed by ``(type,
        value)`` so that ``1``, ``1.0`` and ``True`` keep their types; an
        unhashable value takes one slot per occurrence.  The node ids
        come first, in node order, so ``node_ids`` is ``range(n)`` and
        an id's slot is also its position; the node labels, attribute
        names and edge labels that are not ids follow, then the
        attribute values not already in the pool, each section in
        first-seen order.  The other columns are ``array('I')``:
        ``attr_node``, ``edge_src`` and ``edge_dst`` hold positions in
        ``node_ids``, the rest hold slots in ``pool``.  Nodes, attributes
        and edges are listed in table (insertion) order, so the encoding
        depends on the mutations that built the graph, never on string
        hashing.  Every column is one C-level pass over the tables.
        """
        ids = list(self._nodes)
        nodes = list(self._nodes.values())
        labels = list(map(_LABEL, nodes))
        tables = list(map(_ATTRS, nodes))
        names = list(chain.from_iterable(tables))
        values = list(chain.from_iterable(map(dict.values, tables)))
        edges = self._edges
        edge_labels = list(map(_SECOND, edges))

        # Ids hold slots 0..n-1, so this one table maps an id to its
        # slot and its position, and any other string to its slot.
        named = dict(zip(ids, count()))
        strings = list(
            filterfalse(named.__contains__, dict.fromkeys(chain(labels, names, edge_labels)))
        )
        named.update(zip(strings, count(len(ids))))
        value_keys = list(_typed(values))
        unhashable: list[int] = []
        try:
            distinct = dict.fromkeys(value_keys)
        except TypeError:
            value_keys, unhashable = _pool_keys(values)
            distinct = dict.fromkeys(value_keys)
        # A string value keeps the slot of the id or name it equals.
        slots = {
            key: named[key[1]] for key in distinct if key[0] is str and key[1] in named
        }
        fresh = list(filterfalse(slots.__contains__, distinct))
        slots.update(zip(fresh, count(len(named))))
        pool = ids + strings + list(map(_SECOND, fresh))
        for position in unhashable:
            pool[slots[(_UNHASHABLE, position)]] = values[position]

        slot = named.__getitem__
        # ``(i,) * k`` lists node position i once per attribute of node i.
        attr_node = chain.from_iterable(map(mul, zip(range(len(ids))), map(len, tables)))
        return (
            pool,
            array("I", range(len(ids))),
            array("I", map(slot, labels)),
            array("I", attr_node),
            array("I", map(slot, names)),
            array("I", map(slots.__getitem__, value_keys)),
            array("I", map(slot, map(_FIRST, edges))),
            array("I", map(slot, edge_labels)),
            array("I", map(slot, map(_THIRD, edges))),
        )

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def remove_edge(self, source: str, label: str, target: str) -> Edge:
        """Remove one edge; the edge must be present."""
        edge = (source, label, target)
        if edge not in self._edges:
            raise GraphError(f"cannot remove missing edge {edge!r}")
        del self._edges[edge]
        targets = self._out[source][label]
        targets.discard(target)
        if not targets:
            del self._out[source][label]
        sources = self._in[target][label]
        sources.discard(source)
        if not sources:
            del self._in[target][label]
        self._version += 1
        return edge

    def remove_attribute(self, node_id: str, name: str) -> None:
        """Delete one attribute from an existing node; both must exist."""
        self.node(node_id)._del_attr(name)
        self._version += 1

    def remove_node(self, node_id: str) -> list[Edge]:
        """Remove a node and (cascading) every incident edge.

        Returns the removed incident edges — the dirty region a caller
        maintaining derived structures (indexes, ledgers) must repair.
        """
        node = self.node(node_id)
        incident = set(self.out_edges(node_id)) | set(self.in_edges(node_id))
        for source, label, target in incident:
            self._edges.pop((source, label, target), None)
            targets = self._out[source].get(label)
            if targets is not None:
                targets.discard(target)
                if not targets:
                    del self._out[source][label]
            sources = self._in[target].get(label)
            if sources is not None:
                sources.discard(source)
                if not sources:
                    del self._in[target][label]
        del self._out[node_id]
        del self._in[node_id]
        del self._nodes[node_id]
        members = self._by_label.get(node.label)
        if members is not None:
            members.discard(node_id)
            if not members:
                del self._by_label[node.label]
        self._version += 1
        return sorted(incident)

    @property
    def version(self) -> int:
        """Monotone mutation counter (see ``__init__``).

        Any add_node / effective add_edge / set_attribute — and any
        remove_node / remove_edge / remove_attribute — increments it;
        :mod:`repro.indexing` uses it to detect indexes invalidated by
        mutations that bypassed the maintenance layer, and
        :mod:`repro.engine` retires warm worker pools whose broadcast
        snapshot no longer matches.
        """
        return self._version

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def has_edge(self, source: str, label: str, target: str) -> bool:
        return (source, label, target) in self._edges

    @property
    def node_ids(self) -> list[str]:
        """Node ids in deterministic (insertion) order."""
        return list(self._nodes)

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    @property
    def edges(self) -> set[Edge]:
        return set(self._edges)

    def nodes_with_label(self, label: str) -> set[str]:
        """All node ids carrying exactly ``label``."""
        return set(self._by_label.get(label, ()))

    def label_row(self, label: str | None) -> AbstractSet[str]:
        """The live node-id set for one label — **read-only**.

        The copyless counterpart of :meth:`nodes_with_label`, in the
        style of :meth:`out_row`.  ``None`` is the wildcard row: a live
        view of every node id, O(1) to take and intersected in
        O(other operand) by ``&``.
        """
        if label is None:
            return self._nodes.keys()
        return self._by_label.get(label, _EMPTY_ROW)

    @property
    def labels(self) -> set[str]:
        """All node labels present in the graph."""
        return {label for label, ids in self._by_label.items() if ids}

    @property
    def edge_labels(self) -> set[str]:
        return {label for (_, label, _) in self._edges}

    def successors(self, node_id: str, label: str | None = None) -> set[str]:
        """Targets of out-edges of ``node_id`` (optionally of one label)."""
        index = self._out.get(node_id)
        if index is None:
            raise GraphError(f"unknown node {node_id!r}")
        if label is not None:
            return set(index.get(label, ()))
        result: set[str] = set()
        for targets in index.values():
            result |= targets
        return result

    def predecessors(self, node_id: str, label: str | None = None) -> set[str]:
        """Sources of in-edges of ``node_id`` (optionally of one label)."""
        index = self._in.get(node_id)
        if index is None:
            raise GraphError(f"unknown node {node_id!r}")
        if label is not None:
            return set(index.get(label, ()))
        result: set[str] = set()
        for sources in index.values():
            result |= sources
        return result

    def out_row(self, node_id: str, label: str) -> "set[str] | frozenset[str]":
        """The internal successor set for one label — **read-only**.

        Unlike :meth:`successors`, no copy is made; the returned set is
        the live adjacency index and must not be mutated.  This is the
        matching executor's per-probe row access (the seed matcher paid
        one set copy per edge check here).
        """
        row = self._out.get(node_id)
        if row is None:
            raise GraphError(f"unknown node {node_id!r}")
        return row.get(label, _EMPTY_ROW)

    def in_row(self, node_id: str, label: str) -> "set[str] | frozenset[str]":
        """The internal predecessor set for one label — **read-only**."""
        row = self._in.get(node_id)
        if row is None:
            raise GraphError(f"unknown node {node_id!r}")
        return row.get(label, _EMPTY_ROW)

    def out_edges(self, node_id: str) -> Iterator[Edge]:
        for label, targets in self._out.get(node_id, {}).items():
            for target in targets:
                yield (node_id, label, target)

    def in_edges(self, node_id: str) -> Iterator[Edge]:
        for label, sources in self._in.get(node_id, {}).items():
            for source in sources:
                yield (source, label, node_id)

    def out_degree(self, node_id: str, label: str | None = None) -> int:
        """Out-degree; with ``label``, only edges carrying that label.

        The per-label form answers from the adjacency index's set sizes
        (O(1)) — degree pruning's probe, with no successor-set copy.
        """
        index = self._out.get(node_id, {})
        if label is not None:
            return len(index.get(label, ()))
        return sum(len(t) for t in index.values())

    def in_degree(self, node_id: str, label: str | None = None) -> int:
        """In-degree; with ``label``, only edges carrying that label."""
        index = self._in.get(node_id, {})
        if label is not None:
            return len(index.get(label, ()))
        return sum(len(s) for s in index.values())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def size(self) -> int:
        """|G| = number of nodes + edges + attribute entries.

        Used by the Theorem 1 chase bounds (|Eq| ≤ 4·|G|·|Σ|).
        """
        attr_entries = sum(len(n._attrs) for n in self._nodes.values())
        return len(self._nodes) + len(self._edges) + attr_entries

    # ------------------------------------------------------------------
    # Whole-graph operations
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """An independent deep copy."""
        clone = Graph()
        for node in self._nodes.values():
            clone.add_node(node.id, node.label, node.attributes)
        for source, label, target in self._edges:
            clone.add_edge(source, label, target)
        return clone

    def disjoint_union(
        self, other: "Graph", prefix_self: str = "", prefix_other: str = ""
    ) -> "Graph":
        """Disjoint union, renaming ids with the given prefixes.

        With empty prefixes the id sets must already be disjoint.
        """
        result = Graph()
        for node in self._nodes.values():
            result.add_node(prefix_self + node.id, node.label, node.attributes)
        for node in other._nodes.values():
            result.add_node(prefix_other + node.id, node.label, node.attributes)
        for s, l, t in self._edges:
            result.add_edge(prefix_self + s, l, prefix_self + t)
        for s, l, t in other._edges:
            result.add_edge(prefix_other + s, l, prefix_other + t)
        return result

    def induced_subgraph(self, node_ids: Iterable[str]) -> "Graph":
        """The substructure induced on ``node_ids`` (nodes, their
        attributes, and every edge with both endpoints retained).

        Nodes keep this graph's table order, whatever the order (or the
        hash seed of a set) of ``node_ids``, so the subgraph's columns
        are a function of the graph and the id set alone.  An id that is
        not a node raises :class:`GraphError`.
        """
        keep = set(node_ids)
        missing = keep.difference(self._nodes)
        if missing:
            self.node(min(missing))  # raises GraphError
        result = Graph()
        for node_id, node in self._nodes.items():
            if node_id in keep:
                result.add_node(node_id, node.label, node.attributes)
        for s, l, t in self._edges:
            if s in keep and t in keep:
                result.add_edge(s, l, t)
        return result

    def __eq__(self, other: object) -> bool:
        """Structural equality: same ids, labels, attributes and edges."""
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._nodes) != set(other._nodes):
            return False
        for node_id, node in self._nodes.items():
            other_node = other._nodes[node_id]
            if node.label != other_node.label or node._attrs != other_node._attrs:
                return False
        return self._edges == other._edges

    def __hash__(self) -> int:  # Graphs are mutable; identity hashing only.
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(nodes={len(self._nodes)}, edges={len(self._edges)})"
