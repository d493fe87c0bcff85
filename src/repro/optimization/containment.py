"""Pattern containment and equivalence under homomorphism semantics.

For conjunctive-query-style patterns the classical characterization
holds: writing ``matches(Q, G)`` for the set of matches of Q in G,

    there is a homomorphism h : Q2 → Q1   iff
    for every graph G and every match m of Q1 in G, ``m ∘ h`` is a
    match of Q2 in G.

So ``Q1 subsumes Q2`` ("wherever Q1 matches, Q2 matches") is decided by
matching Q2 against the canonical graph G_{Q1} — the paper's own move
in Example 5, where a homomorphism f from Q2 to Q1 makes every match of
Q1 induce a match of Q2, which is exactly how the two GEDs of Σ1
interact.  Wildcards follow ``≼``: a wildcard pattern node maps to any
node, a concrete-labeled one only to nodes with that label (G_{Q1} may
itself contain wildcard-labeled nodes, which concrete labels do *not*
match — ``≼`` is asymmetric).

``contained_in(q1, q2)`` is the Boolean-query reading: every graph with
a match of ``q1`` has a match of ``q2``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.chase.canonical import canonical_graph
from repro.matching.homomorphism import find_match
from repro.patterns.pattern import Pattern


@lru_cache(maxsize=256)
def _cached_canonical(pattern: Pattern) -> object:
    """G_Q memoized per pattern.

    Containment checks run in pairwise loops (cover computation probes
    every rule against every other); caching the canonical graph keeps
    its candidate-pool cache (:mod:`repro.matching.view`) alive, so the
    O(n²) probe loop pays one graph build per target and one pool
    derivation per (target, probe-pattern) pair instead of rebuilding
    both per probe.
    """
    return canonical_graph(pattern)


def subsumes(q1: Pattern, q2: Pattern) -> bool:
    """Whether every match of ``q1`` (in any graph) induces a match of
    ``q2``, i.e. a homomorphism ``q2 → q1`` exists.

    Returns True exactly when matching ``q2`` in the canonical graph
    G_{q1} succeeds — stopping at the first witness.
    """
    return find_match(q2, _cached_canonical(q1)) is not None


def witness_homomorphism(q1: Pattern, q2: Pattern) -> dict[str, str] | None:
    """A homomorphism ``q2 → q1`` (as variable → variable), or None.

    This is the ``f`` of Example 5: composing a match h of ``q1`` with
    the witness yields the induced match ``h ∘ f`` of ``q2``.
    """
    return find_match(q2, _cached_canonical(q1))


def contained_in(q1: Pattern, q2: Pattern) -> bool:
    """Boolean containment: every graph where ``q1`` has a match also
    gives ``q2`` a match.  Equivalent to :func:`subsumes`\\ (q1, q2)."""
    return subsumes(q1, q2)


def equivalent_patterns(q1: Pattern, q2: Pattern) -> bool:
    """Homomorphic equivalence: containment in both directions.

    Equivalent patterns have matches in exactly the same graphs, so
    either can stand in for the other as a query scope — the basis for
    minimization (:mod:`repro.optimization.minimize`): a pattern is
    equivalent to its core.
    """
    return subsumes(q1, q2) and subsumes(q2, q1)


__all__ = [
    "contained_in",
    "equivalent_patterns",
    "subsumes",
    "witness_homomorphism",
]
