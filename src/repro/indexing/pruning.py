"""Index-backed candidate pruning for the matching hot path.

:class:`CandidatePruner` computes the same ``variable -> candidate
pool`` maps as :func:`repro.matching.candidates.candidate_sets`, but
against a :class:`~repro.indexing.indexed_graph.GraphIndexes` and with a
strictly stronger (still purely *necessary*) filter chain per variable:

1. **label pool** — the graph's node-label index (wildcard = all nodes);
2. **degree** — per-label out/in degree counters must cover every
   pattern edge at the variable (the unindexed filter, now O(1) counter
   probes instead of successor-set materialization);
3. **neighborhood signature** — for every pattern edge ``(u, ι, u′)``
   the node must carry a 1-hop ``(edge label, neighbor label)`` pair
   admitting ``(ι, L_Q(u′))`` under ``≼``.

Step 3 subsumes step 2 for concrete edge labels but the counters are
kept first because they reject on a cheaper probe; both are necessary
conditions for a homomorphism, so pruned pools are always subsets of the
unindexed pools and the enumerated match sets are bit-identical (the
equality tests in ``tests/indexing`` assert exactly this).

Pruning effectiveness is measured by comparing pool sizes of the
indexed and ``use_index=False`` computations — what the CLI ``index``
command and ``benchmarks/bench_indexing.py`` do.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.graph import Graph
from repro.patterns.labels import WILDCARD
from repro.patterns.pattern import Pattern

from repro.indexing.indexed_graph import GraphIndexes
from repro.indexing.signatures import admits_all, pattern_requirements


class CandidatePruner:
    """Candidate-set computation against a synced index."""

    def __init__(self, graph: Graph, index: GraphIndexes):
        self.graph = graph
        self.index = index

    def candidate_sets(self, pattern: Pattern) -> dict[str, set[str]]:
        """``variable -> {plausible node ids}``; a subset, per variable,
        of the unindexed computation's pools."""
        result: dict[str, set[str]] = {}
        for variable in pattern.variables:
            label = pattern.label_of(variable)
            if label == WILDCARD:
                pool = self.graph.node_ids
            else:
                pool = self.graph.nodes_with_label(label)
            result[variable] = self.admit(pattern, variable, pool)
        return result

    def admit(self, pattern: Pattern, variable: str, node_ids: Iterable[str]) -> set[str]:
        """The ``node_ids`` that could survive the filter chain as images
        of ``variable``, with the variable's requirements derived once
        for the whole set.  The streaming delta kernel calls it once per
        (Σ group, variable) to drop node pins from the variable's pin
        set before the executor runs."""
        out_reqs, in_reqs = pattern_requirements(pattern, variable)
        admissible = self._admissible
        return {
            node_id for node_id in node_ids if admissible(node_id, out_reqs, in_reqs)
        }

    def _admissible(
        self,
        node_id: str,
        out_reqs: tuple[tuple[str, str], ...],
        in_reqs: tuple[tuple[str, str], ...],
    ) -> bool:
        index = self.index
        # Degree counters: every pattern edge needs at least one graph
        # edge of an admissible label in the right direction.
        for edge_label, _ in out_reqs:
            if edge_label == WILDCARD:
                if index.out_degree(node_id) < 1:
                    return False
            elif index.out_degree(node_id, edge_label) < 1:
                return False
        for edge_label, _ in in_reqs:
            if edge_label == WILDCARD:
                if index.in_degree(node_id) < 1:
                    return False
            elif index.in_degree(node_id, edge_label) < 1:
                return False
        # Neighborhood signatures: the neighbor's *label* must also fit.
        if out_reqs and not admits_all(
            index.out_pairs.get(node_id, ()),
            index.out_nbr_labels.get(node_id, ()),
            index.out_edge_labels.get(node_id, ()),
            out_reqs,
        ):
            return False
        if in_reqs and not admits_all(
            index.in_pairs.get(node_id, ()),
            index.in_nbr_labels.get(node_id, ()),
            index.in_edge_labels.get(node_id, ()),
            in_reqs,
        ):
            return False
        return True


__all__ = ["CandidatePruner"]
