"""The streaming delta kernel: violations introduced by one update batch.

A violation introduced by a batch must have a *touched element* in the
image of its match: additions only create matches through the new
elements, deletions only destroy matches or change literal values at
the deleted element's node.  The kernel therefore joins the touched set
as one relation per pattern variable — the delta-rule form of
incremental view maintenance (Gupta, Mumick & Subrahmanian,
"Maintaining Views Incrementally", SIGMOD 1993) — rather than once per
touched node: for each pattern variable it runs the plan executor once,
with that variable's pool replaced by its **pin set**, the live touched
nodes the variable's pool admits.  The union of those runs is every
match that meets the touched set, and a run's work follows the pin
set's neighborhood, not |G|:

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
* with a synced :mod:`repro.indexing` index attached, a touched node
  leaves a variable's pin set before any search when its 1-hop
  neighborhood signature cannot admit the variable's pattern edges
  (:meth:`~repro.indexing.pruning.CandidatePruner.admit`), and the
  X-literal restriction pools of
  :func:`~repro.reasoning.validation.x_literal_restrictions` narrow the
  label rows further.

All of these are necessary conditions, so the kernel finds exactly the
violations whose match meets the touched set — work proportional to the
update's neighborhood, not to |G| — in at most one executor run
(:func:`~repro.matching.plan.execute_over_pools`) per pattern variable,
whatever the batch size.  The live label rows cost no pool derivation
or copy on a graph that mutates every batch.

**Σ grouping** rides the observation that rule sets are families of
literal variants over few distinct skeletons.  The kernel groups Σ by
(pattern, X-restriction) — :func:`~repro.reasoning.validation.sigma_groups`, the
grouping the full Σ scan uses — runs each (group, variable) pin set
once, and evaluates every member rule off that one stream
(``matching.sigma.stream_reuse`` counts the further rules each run
serves).  A per-group ``seen`` set reports a match that meets several
touched nodes — and so comes out of several variables' runs — once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.deps.ged import GED
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.matching.plan import execute_over_pools
from repro.patterns.labels import WILDCARD
from repro.reasoning.validation import Violation, evaluate_match, sigma_groups
from repro.telemetry import metrics as _metrics

#: A found violation, tagged with its dependency's position in Σ (the
#: ledger's key space; positions disambiguate equal rules).
TaggedViolation = tuple[int, Violation]


def delta_violations(
    graph: Graph,
    sigma: Sequence[GED],
    touched: Iterable[str],
) -> list[TaggedViolation]:
    """All violations of Σ (post-update) whose match meets ``touched``.

    ``graph`` must already have the update applied; touched ids that no
    longer exist (deletions) are skipped — they cannot host matches.
    Deterministic: Σ groups in first-appearance order, one executor run
    per (group, pattern variable) in pattern order over that variable's
    pin set, the executor's own enumeration order within each run (it
    sorts the pools it scans, so the order of ``touched`` does not
    matter), member rules in Σ order per match.  Duplicates (one match
    meeting several touched nodes) are reported once; de-duplication
    works across calls only through the ledger (each call stands alone).
    """
    live = {node_id for node_id in touched if graph.has_node(node_id)}
    if not live:
        return []
    index = get_index(graph)
    pruner = None
    if index is not None:
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
        seen: set[tuple[tuple[str, str], ...]] = set()
        for variable in pattern.variables:
            pins = live & pools[variable]
            if pruner is not None and pins:
                pins = pruner.admit(pattern, variable, pins)
            if not pins:
                continue
            reused += len(rules) - 1
            for match in execute_over_pools(pattern, graph, {**pools, variable: pins}):
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


__all__ = ["TaggedViolation", "delta_violations"]
