"""The streaming delta kernel: violations introduced by one update batch.

**The batch footprint.**  Σ can see only part of what a batch changes:
its literals read some attribute names, and its patterns' edges some
edge labels.  :func:`sigma_reads` computes that **read set** once per
Σ, and :func:`batch_footprint` types a batch by what it changed of it:

* **node pins** — added nodes, plus nodes where the batch writes or
  deletes an attribute Σ reads (added nodes also cover the edgeless
  components of a pattern);
* **edge pins** — added edges whose label Σ reads (every label counts
  behind a wildcard pattern edge);
* **recheck nodes / edges** — deleted nodes and attribute-changed nodes,
  and deleted edges whose label Σ reads: the ledger re-checks the
  entries that meet a recheck node, or *both* endpoints of a recheck
  edge.

A node that only gained an edge, or only had an attribute written that
no rule reads, is pinned nowhere.

**Why it is exact.**  Patterns and literals are positive: a match is a
set of nodes and edges that exist, and a literal reads attributes of
the match's nodes (an id literal reads only the match itself).  So a
violation of the post-batch graph that was absent before the batch
either uses an added node or edge — its match is new — or its rule
reads an attribute that changed at one of its nodes — its X or Y
verdict moved.  The first is found from a node pin or an edge pin, the
second from a node pin.  Symmetrically, a ledger entry whose status can
change uses a deleted node or edge (its match may be gone), or its rule
reads an attribute that changed at one of its nodes (its verdict or
failed set may have moved); a match uses a graph edge only when both
endpoints lie in its image, so the entries meeting both endpoints of a
deleted edge cover the ones that used it.  Every other entry evaluates
exactly as before the batch.  The footprint is a superset of both
conditions — a pin may find violations that already existed, which the
ledger already holds — so the deltas equal the ones a touched-node
footprint yields, while the work follows what changed.

**The kernel** joins the footprint as one relation per pattern element —
the delta-rule form of incremental view maintenance (Gupta, Mumick &
Subrahmanian, "Maintaining Views Incrementally", SIGMOD 1993), whose
base relations here are the pattern's edges and the attributes Σ reads.
Per Σ group it runs the plan executor
(:func:`~repro.matching.plan.execute_over_pools`):

* once per pattern variable with a non-empty **pin set** — that
  variable's pool replaced by the live node pins it admits;
* once per pattern edge ``(x, ι, y)`` with edge pins of a matching
  label — x's pool replaced by those edges' sources and y's by their
  targets, both inside the group's label and restriction pools (a
  self-loop pattern edge takes the pins whose source is their target).
  That pool pair admits every match through an edge pin at that
  pattern edge, plus a few more, which the ledger already holds.

The union of those runs is every match that meets the footprint, and a
run's work follows the pin set's neighborhood, not |G|:

* **locality comes from the pattern's edges** — every pattern edge maps
  to a graph edge, and the executor ranks variables by effective pool
  size, so the small pin set opens its weakly connected component of Q
  (or a pool smaller still does, at no more cost) and every other
  variable of that component is bound through an edge check against an
  already-bound image.  Every match of a run therefore already lies in the
  pattern-radius ball around a pinned node, and those variables need
  only their label filter: the graph's live label row
  (:meth:`~repro.graph.graph.Graph.label_row`, no copy — the wildcard
  row is a live view of every node id, which the executor's ``&``
  intersects in O(adjacency row));
* variables in *other* components of Q are unconstrained by the pin
  set and are scanned over the same label rows;
* with a synced :mod:`repro.indexing` index attached, a node pin
  leaves a variable's pin set before any search when its 1-hop
  neighborhood signature cannot admit the variable's pattern edges
  (:meth:`~repro.indexing.pruning.CandidatePruner.admit`), and the
  X-literal restriction pools of
  :func:`~repro.reasoning.validation.x_literal_restrictions` narrow the
  label rows further.

All of these are necessary conditions, so the kernel finds exactly the
violations whose match meets the pins — in at most one executor run per
(Σ group, pattern variable) plus one per (Σ group, pattern edge),
whatever the batch size.  The live label rows cost no pool derivation
or copy on a graph that mutates every batch.  A caller that passes only
node pins (a touched-node set) gets the violations meeting those nodes.

**Σ grouping** rides the observation that rule sets are families of
literal variants over few distinct skeletons.  The kernel groups Σ by
(pattern, X-restriction) — :func:`~repro.reasoning.validation.sigma_groups`, the
grouping the full Σ scan uses — runs each pin set once per group, and
evaluates every member rule off that one stream
(``matching.sigma.stream_reuse`` counts the further rules each run
serves).  A per-group ``seen`` set reports a match that two runs find
once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.deps.ged import GED
from repro.deps.literals import FALSE, ConstantLiteral, IdLiteral, VariableLiteral
from repro.graph.graph import Edge, Graph
from repro.graph.update import GraphUpdate
from repro.indexing.registry import get_index
from repro.matching.plan import execute_over_pools
from repro.patterns.labels import WILDCARD
from repro.reasoning.validation import Violation, evaluate_match, sigma_groups
from repro.telemetry import metrics as _metrics

#: A found violation, tagged with its dependency's position in Σ (the
#: ledger's key space; positions disambiguate equal rules).
TaggedViolation = tuple[int, Violation]


@dataclass(frozen=True)
class SigmaReads:
    """The attribute names and edge labels Σ reads; ``None`` means
    every one counts."""

    attrs: frozenset[str] | None
    labels: frozenset[str] | None

    def reads_attr(self, name: str) -> bool:
        """Whether some literal of Σ reads attribute ``name``."""
        return self.attrs is None or name in self.attrs

    def reads_label(self, label: str) -> bool:
        """Whether some pattern edge of Σ can map onto an edge of ``label``."""
        return self.labels is None or label in self.labels


def sigma_reads(sigma: Iterable[GED]) -> SigmaReads:
    """Σ's read set: the attributes its X and Y literals read (constant
    and variable literals; id literals and ``false`` read none, and a
    literal of any other type makes every attribute count) and the
    labels on its pattern edges (a wildcard edge makes every label
    count)."""
    attrs: set[str] | None = set()
    labels: set[str] | None = set()
    for ged in sigma:
        for literal in (*ged.X, *ged.Y):
            if attrs is None:
                break
            if isinstance(literal, ConstantLiteral):
                attrs.add(literal.attr)
            elif isinstance(literal, VariableLiteral):
                attrs.update((literal.attr1, literal.attr2))
            elif not (isinstance(literal, IdLiteral) or literal is FALSE):
                attrs = None
        for _, label, _ in ged.pattern.edges:
            if labels is None:
                break
            if label == WILDCARD:
                labels = None
            else:
                labels.add(label)
    return SigmaReads(
        None if attrs is None else frozenset(attrs),
        None if labels is None else frozenset(labels),
    )


@dataclass
class Footprint:
    """What one batch changed that Σ reads (see the module docstring)."""

    node_pins: set[str]
    edge_pins: list[Edge]
    recheck_nodes: set[str]
    recheck_edges: list[Edge]


def batch_footprint(update: GraphUpdate, reads: SigmaReads) -> Footprint:
    """The footprint of ``update`` under Σ's read set ``reads``."""
    changed = {node_id for node_id, name, _ in update.attrs if reads.reads_attr(name)}
    changed.update(
        node_id for node_id, name in update.del_attrs if reads.reads_attr(name)
    )
    return Footprint(
        node_pins={node_id for node_id, _, _ in update.nodes} | changed,
        edge_pins=[edge for edge in update.edges if reads.reads_label(edge[1])],
        recheck_nodes=set(update.del_nodes) | changed,
        recheck_edges=[edge for edge in update.del_edges if reads.reads_label(edge[1])],
    )


def delta_violations(
    graph: Graph,
    sigma: Sequence[GED],
    pins: Iterable[str],
    edge_pins: Iterable[Edge] = (),
) -> list[TaggedViolation]:
    """All violations of Σ (post-update) whose match meets ``pins`` or
    maps a pattern edge onto one of ``edge_pins`` — and possibly a few
    more, whose match puts one edge pin's source and another's target at
    a pattern edge's ends.

    ``graph`` must already have the update applied; pinned ids that no
    longer exist (deletions) are skipped — they cannot host matches —
    and edge pins must be edges of ``graph``.  Deterministic: Σ groups
    in first-appearance order; per group one executor run per pattern
    variable in pattern order over its pin set, then one per pattern
    edge in pattern order over its edge pins; the executor's own
    enumeration order within each run (it sorts the pools it scans, so
    the order of the pins does not matter); member rules in Σ order per
    match.  Duplicates (one match that two runs find) are reported
    once; de-duplication works across calls only through the ledger
    (each call stands alone).
    """
    live = {node_id for node_id in pins if graph.has_node(node_id)}
    pairs_by_label: dict[str, list[tuple[str, str]]] = {}
    for source, label, target in edge_pins:
        pairs_by_label.setdefault(label, []).append((source, target))
    if not live and not pairs_by_label:
        return []
    all_pairs = [pair for pairs in pairs_by_label.values() for pair in pairs]
    index = get_index(graph)
    pruner = None
    if index is not None and live:
        from repro.indexing.pruning import CandidatePruner

        pruner = CandidatePruner(graph, index)

    found: list[TaggedViolation] = []
    reused = 0
    for pattern, restrict, members in sigma_groups(graph, sigma):
        rules = [(position, sigma[position]) for position in members]
        pools = {}
        for variable in pattern.variables:
            label = pattern.label_of(variable)
            pools[variable] = graph.label_row(None if label == WILDCARD else label)
        if restrict:
            for variable, pool in restrict.items():
                pools[variable] = pools[variable] & pool
        runs = []
        for variable in pattern.variables:
            pinned = live & pools[variable]
            if pruner is not None and pinned:
                pinned = pruner.admit(pattern, variable, pinned)
            if pinned:
                runs.append({**pools, variable: pinned})
        for source_var, label, target_var in pattern.edges:
            pairs = all_pairs if label == WILDCARD else pairs_by_label.get(label)
            if not pairs:
                continue
            if source_var == target_var:
                loops = {source for source, target in pairs if source == target}
                pinned = loops & pools[source_var]
                if pinned:
                    runs.append({**pools, source_var: pinned})
                continue
            sources = {source for source, _ in pairs} & pools[source_var]
            targets = {target for _, target in pairs} & pools[target_var]
            if sources and targets:
                runs.append({**pools, source_var: sources, target_var: targets})
        seen: set[tuple[tuple[str, str], ...]] = set()
        for run_pools in runs:
            reused += len(rules) - 1
            for match in execute_over_pools(pattern, graph, run_pools):
                key = tuple(sorted(match.items()))
                if key in seen:
                    continue
                seen.add(key)
                for position, ged in rules:
                    failed = evaluate_match(graph, ged, match)
                    if failed:
                        found.append((position, Violation(ged, key, failed)))
    if reused:
        _metrics.sink().incr("matching.sigma.stream_reuse", reused)
    return found


__all__ = [
    "Footprint",
    "SigmaReads",
    "TaggedViolation",
    "batch_footprint",
    "delta_violations",
    "sigma_reads",
]
