"""Pattern minimization: cores and chase-based variable merging.

Two complementary reductions, both sound for query optimization:

* :func:`core` — the classical CQ core, no dependencies involved: fold
  the pattern onto itself via a non-surjective endomorphism until no
  fold exists.  The result is homomorphically equivalent to the input
  (same graphs have matches), but strictly smaller whenever the pattern
  contains redundant structure — e.g. two parallel wildcard edges, or a
  generic ``(_)-[e]->(_)`` limb alongside a concrete ``(a)-[e]->(b)``.

* :func:`minimize_pattern` — minimization **relative to Σ** (the
  paper's Section 4 use case (b): "optimize graph pattern queries Q
  with Σ when G represents Q").  Chase the canonical graph G_Q by Σ; if
  the chase is consistent and merges pattern variables (id literals
  fired), the merged pattern Q' has the same matches as Q on every
  graph G |= Σ — a match of Q must send merged variables to the same
  node anyway, because G satisfies the very dependencies that forced
  the merge.  If the chase is *inconsistent*, Q is unsatisfiable over
  graphs satisfying Σ when its premise holds vacuously — reported so a
  query planner can answer without touching the data.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.chase.canonical import canonical_graph
from repro.chase.engine import ChaseResult, chase
from repro.deps.ged import GED
from repro.deps.literals import ConstantLiteral, Literal
from repro.matching.homomorphism import find_homomorphisms
from repro.patterns.pattern import Pattern


def is_core(pattern: Pattern) -> bool:
    """Whether the pattern admits no non-surjective endomorphism."""
    return _proper_retraction(pattern) is None


def core(pattern: Pattern) -> tuple[Pattern, dict[str, str]]:
    """The core of ``pattern`` and the folding map onto it.

    The returned mapping sends every original variable to the variable
    representing it in the core (identity on retained variables).
    Iterates retractions to a fixpoint; the core is unique up to
    isomorphism, and our deterministic search makes the output stable.
    """
    current = pattern
    folding = {v: v for v in pattern.variables}
    while True:
        retraction = _proper_retraction(current)
        if retraction is None:
            return current, folding
        image = sorted(set(retraction.values()), key=current.variables.index)
        current = _induced_subpattern(current, image)
        folding = {v: retraction[folding[v]] for v in folding}


def _proper_retraction(pattern: Pattern) -> dict[str, str] | None:
    """A non-surjective endomorphism of the pattern, if one exists.

    Endomorphisms are matches of the pattern in its own canonical
    graph; node ids of G_Q are exactly the variables, so a match *is*
    a variable → variable map.  Enumerated over the pattern's own
    canonical graph (each core iteration shrinks the pattern, so each
    round matches one fresh, tiny graph).
    """
    g_q = canonical_graph(pattern)
    n = pattern.num_variables
    for match in find_homomorphisms(pattern, g_q):
        if len(set(match.values())) < n:
            return dict(match)
    return None


def _induced_subpattern(pattern: Pattern, keep: Sequence[str]) -> Pattern:
    kept = set(keep)
    nodes = {v: pattern.label_of(v) for v in keep}
    edges = [
        (s, l, t) for (s, l, t) in pattern.edges if s in kept and t in kept
    ]
    return Pattern(nodes, edges, variables=list(keep))


@dataclass
class MinimizationResult:
    """Outcome of chase-based minimization of Q under Σ.

    ``pattern`` — the reduced pattern Q' (equal to the input when Σ
    merged nothing).  ``mapping`` — original variable → representative
    variable of Q'.  ``implied`` — constant literals Σ pins on Q''s
    variables (usable as match-time filters).  ``unsatisfiable`` — the
    chase of G_Q was inconsistent: no graph satisfying Σ matches Q
    *with the chase's premises satisfiable*; a planner may prune the
    query entirely.
    """

    pattern: Pattern
    mapping: dict[str, str]
    implied: list[Literal] = field(default_factory=list)
    unsatisfiable: bool = False
    chase_result: ChaseResult | None = None

    @property
    def merged_any(self) -> bool:
        return len(set(self.mapping.values())) < len(self.mapping)


def minimize_pattern(
    pattern: Pattern,
    sigma: Sequence[GED],
    also_core: bool = False,
) -> MinimizationResult:
    """Minimize ``pattern`` relative to ``sigma`` by chasing G_Q.

    With ``also_core`` the Σ-reduced pattern is further folded onto its
    core (dependency-free minimization composes soundly after the
    Σ-aware step).
    """
    g_q = canonical_graph(pattern)
    result = chase(g_q, list(sigma))
    if not result.consistent:
        return MinimizationResult(
            pattern, {v: v for v in pattern.variables}, [], True, result
        )

    mapping = {
        v: result.eq.node_representative(v) for v in pattern.variables
    }
    representatives = sorted(set(mapping.values()), key=pattern.variables.index)
    if len(representatives) < pattern.num_variables:
        merged = _quotient_pattern(pattern, mapping, representatives, result)
    else:
        merged = pattern

    implied = _implied_constants(merged, result)

    if also_core:
        folded, fold_map = core(merged)
        mapping = {v: fold_map[mapping[v]] for v in mapping}
        merged = folded
        implied = [
            l for l in implied if isinstance(l, ConstantLiteral) and merged.has_variable(l.var)
        ]
    return MinimizationResult(merged, mapping, implied, False, result)


def _quotient_pattern(
    pattern: Pattern,
    mapping: dict[str, str],
    representatives: Sequence[str],
    result: ChaseResult,
) -> Pattern:
    """The pattern on Eq-class representatives, with projected edges
    and the coercion's labels (a wildcard class takes the concrete
    label of any member, per Section 4's coercion rule (c))."""
    labels: dict[str, str] = {}
    for rep in representatives:
        labels[rep] = result.graph.node(rep).label
    edges = [
        (mapping[s], l, mapping[t]) for (s, l, t) in pattern.edges
    ]
    return Pattern(labels, edges, variables=list(representatives))


def _implied_constants(merged: Pattern, result: ChaseResult) -> list[Literal]:
    """Constant literals the chase pinned on surviving variables."""
    implied: list[Literal] = []
    for variable in merged.variables:
        node = result.eq.node_representative(variable)
        for attr in sorted(result.eq.class_attr_names(node)):
            value = result.eq.attr_constant(node, attr)
            if value is not None:
                implied.append(ConstantLiteral(variable, attr, value))
    return implied


__all__ = ["MinimizationResult", "core", "is_core", "minimize_pattern"]
