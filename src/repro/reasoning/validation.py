"""The validation problem: does G |= Σ? (Section 5.3).

``G |= Q[x̄](X → Y)`` iff every match h of Q in G with h(x̄) |= X also
satisfies Y.  Literal satisfaction on a data graph follows Section 3:

* ``x.A = c`` — attribute A *exists* at h(x) and equals c;
* ``x.A = y.B`` — both attributes exist and their values agree;
* ``x.id = y.id`` — h(x) and h(y) are the same node;
* ``false`` — never satisfied.

Validation is coNP-complete in general (Theorem 6) because a pattern
can have exponentially many matches; for patterns of bounded size it is
PTIME (Section 5.3, wrapped by :mod:`repro.reasoning.bounded`).  Beyond
the decision problem, :func:`find_violations` returns *witnesses* —
(dependency, match, failed literals) triples — which is what the data
quality applications (Example 1) consume.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.deps.ged import GED
from repro.deps.literals import (
    FALSE,
    ConstantLiteral,
    IdLiteral,
    Literal,
    VariableLiteral,
)
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.matching.plan import compile_sigma, execute_over_pools
from repro.patterns.pattern import Pattern
from repro.telemetry.spans import span


def literal_holds(graph: Graph, literal: Literal, match: Mapping[str, str]) -> bool:
    """h(x̄) |= l on a concrete data graph."""
    if isinstance(literal, ConstantLiteral):
        node = graph.node(match[literal.var])
        return node.has_attribute(literal.attr) and node.get(literal.attr) == literal.const
    if isinstance(literal, VariableLiteral):
        node1 = graph.node(match[literal.var1])
        node2 = graph.node(match[literal.var2])
        if not node1.has_attribute(literal.attr1) or not node2.has_attribute(literal.attr2):
            return False
        return node1.get(literal.attr1) == node2.get(literal.attr2)
    if isinstance(literal, IdLiteral):
        return match[literal.var1] == match[literal.var2]
    if literal is FALSE:
        return False
    raise TypeError(f"unknown literal {literal!r}")


def evaluate_match(
    graph: Graph, ged: GED, match: Mapping[str, str]
) -> tuple[Literal, ...] | None:
    """The violation verdict for one match: the (non-empty, sorted-by-
    ``str``) tuple of failed Y literals when h(x̄) |= X and some Y
    literal fails, else ``None``.

    Every violation-producing path — full validation, sharded shards,
    the streaming delta kernel and the ledger's re-checks — funnels
    through this single evaluation, so the byte-identity guarantees
    between them (same failed sets, same ordering) rest on one
    definition.
    """
    if ged.X and not all(literal_holds(graph, l, match) for l in ged.X):
        return None
    failed = [l for l in _sorted_y(ged) if not literal_holds(graph, l, match)]
    return tuple(failed) if failed else None


@lru_cache(maxsize=4096)
def _sorted_y(ged: GED) -> tuple[Literal, ...]:
    """Y in report order, computed once per dependency: the sort is
    per-rule-constant, and ``evaluate_match`` runs once per candidate
    match — re-sorting there dominated dense-match validations."""
    return tuple(sorted(ged.Y, key=str))


@dataclass(frozen=True)
class Violation:
    """A witness that G does not satisfy a dependency.

    ``match`` satisfies the dependency's X but fails ``failed`` ⊆ Y.
    """

    ged: GED
    match: tuple[tuple[str, str], ...]
    failed: tuple[Literal, ...]

    @property
    def assignment(self) -> dict[str, str]:
        return dict(self.match)

    def __str__(self) -> str:
        failed = ", ".join(sorted(str(l) for l in self.failed))
        where = ", ".join(f"{v}->{n}" for v, n in self.match)
        return f"violation of {self.ged.name or 'GED'} at [{where}]: fails {failed}"


def x_literal_restrictions(graph: Graph, ged: GED) -> dict[str, set[str]] | None:
    """Candidate pools implied by Σ's precondition, via the index.

    A match is a violation only if every literal of X holds; for a
    constant literal ``x.A = c`` that means h(x) lies in the attribute
    inverted index's posting list for ``(A, c)``.  Restricting the
    search to those pools skips matches where X cannot hold — matches
    the violation scan would discard anyway — so the violation set is
    preserved exactly.  Returns ``None`` when no index is attached or no
    literal is indexable (unhashable-valued attributes report "unknown"
    and impose nothing).
    """
    index = get_index(graph)
    if index is None:
        return None
    restrict: dict[str, set[str]] = {}
    for literal in ged.X:
        if not isinstance(literal, ConstantLiteral):
            continue
        pool = index.nodes_with_attr_value(literal.attr, literal.const)
        if pool is None:
            continue
        current = restrict.get(literal.var)
        restrict[literal.var] = set(pool) if current is None else current & pool
    return restrict or None


def find_violations(
    graph: Graph,
    sigma: Iterable[GED],
    limit: int | None = None,
) -> list[Violation]:
    """All (up to ``limit``, which must be positive) violations of Σ in G.

    Each dependency's pattern runs the plan executor
    (:func:`~repro.matching.plan.execute_over_pools`) over its candidate
    pools, straight on the graph's adjacency sets.  The pools come
    from :func:`~repro.matching.plan.compile_sigma`, cached per (graph
    version, index attachment), so repeated validations of an unmutated
    graph derive them once.  The X-literal restriction pools of
    :func:`x_literal_restrictions` narrow them as the executor's
    attr-filter stage.  Index-aware: with a :mod:`repro.indexing` index
    attached the candidate pools are the pruner's and the attr filters
    actually bite; the returned violations are identical either way.

    Multi-rule full scans (``limit is None``, more than one dependency)
    run **grouped** (:func:`sigma_scan`): rules sharing a pattern and an
    X-restriction are enumerated once and every member rule is
    evaluated on each match.  The per-dependency violation lists — and
    their concatenation order — are byte-identical to the per-rule
    loop.  Limited scans keep the per-rule loop: ``validates`` stops at
    the first violation, which grouping cannot bring any sooner.

    Raises :class:`ValueError` for ``limit < 1``: no violation list of
    that length can tell a dirty graph from a clean one.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    sigma = list(sigma)
    if limit is None and len(sigma) > 1:
        with span("validate.sigma", rules=len(sigma)):
            buckets, _, _ = sigma_scan(graph, sigma)
        return [violation for bucket in buckets for violation in bucket]
    violations: list[Violation] = []
    for position, ged in enumerate(sigma):
        with span("validate.dep", dep=ged.name or f"#{position}"):
            restrict = x_literal_restrictions(graph, ged)
            pools = compile_sigma(graph, (ged.pattern,))[ged.pattern]
            for match in execute_over_pools(ged.pattern, graph, pools, restrict=restrict):
                failed = evaluate_match(graph, ged, match)
                if failed:
                    violations.append(
                        Violation(ged, tuple(sorted(match.items())), failed)
                    )
                    if limit is not None and len(violations) >= limit:
                        return violations
    return violations


def sigma_groups(
    graph: Graph, sigma: "Sequence[GED]"
) -> list[tuple[Pattern, dict[str, set[str]] | None, list[int]]]:
    """Σ grouped by (pattern, X-restriction), in first-appearance order.

    Each group is ``(pattern, restrict, member positions)``: literal
    variants over one skeleton whose
    :func:`x_literal_restrictions` agree enumerate the same matches, so
    every consumer that walks Σ — the full Σ scan and the serial
    backend's batch (:func:`sigma_scan`), and the streaming delta kernel —
    enumerates once per group and evaluates each member rule off that
    one stream.  ``pattern`` and ``restrict`` are the first member's.
    """
    groups: dict = {}
    for position, ged in enumerate(sigma):
        restrict = x_literal_restrictions(graph, ged)
        key = (
            ged.pattern,
            None
            if restrict is None
            else frozenset((var, frozenset(pool)) for var, pool in restrict.items()),
        )
        group = groups.get(key)
        if group is None:
            group = groups[key] = (ged.pattern, restrict, [])
        group[2].append(position)
    return list(groups.values())


def sigma_scan(
    graph: Graph, sigma: "Sequence[GED]"
) -> tuple[list[list[Violation]], list[int], dict[Pattern, dict[str, frozenset[str]]]]:
    """The grouped full Σ scan: per-rule violation lists and match
    counts, and the candidate pools it ran on (per distinct pattern).

    One ``execute_over_pools(..., restrict=...)`` run per
    :func:`sigma_groups` group, with every member rule evaluated on
    each match.  Each rule's list is exactly what its solo run yields,
    because a group's restriction is each member's own.  Pools come
    from this module's ``compile_sigma``, looked up at call time (by
    both validation loops): the traced serve benchmark
    (``perfbench/traced_serve.py``) wraps that name to time pool
    derivation.
    """
    pools = compile_sigma(graph, [ged.pattern for ged in sigma])
    buckets: list[list[Violation]] = [[] for _ in sigma]
    counts = [0] * len(sigma)
    for pattern, restrict, members in sigma_groups(graph, sigma):
        rules = [(position, sigma[position]) for position in members]
        matched = 0
        for match in execute_over_pools(pattern, graph, pools[pattern], restrict=restrict):
            matched += 1
            items = None
            for position, ged in rules:
                failed = evaluate_match(graph, ged, match)
                if failed:
                    if items is None:
                        items = tuple(sorted(match.items()))
                    buckets[position].append(Violation(ged, items, failed))
        for position in members:
            counts[position] = matched
    return buckets, counts, pools


def validates(graph: Graph, sigma: Iterable[GED], **_ignored) -> bool:
    """G |= Σ — the Theorem 6 decision problem."""
    return not find_violations(graph, sigma, limit=1)


def satisfies_ged(graph: Graph, ged: GED) -> bool:
    """G |= φ for a single dependency."""
    return validates(graph, [ged])


def matches_all_patterns(graph: Graph, sigma: Iterable[GED]) -> bool:
    """Whether every pattern of Σ has a match in G — the second half of
    the *model* condition of Section 5.1 (strong satisfiability)."""
    from repro.matching.homomorphism import has_match

    return all(has_match(ged.pattern, graph) for ged in sigma)


def is_model(graph: Graph, sigma: Sequence[GED]) -> bool:
    """Whether G is a model of Σ: G |= Σ and every pattern matches."""
    return matches_all_patterns(graph, sigma) and validates(graph, sigma)
