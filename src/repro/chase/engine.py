"""The revised chase for GEDs (Section 4).

``chase(G, Σ)`` runs chase steps ``Eq ⇒_(φ,h) Eq'`` until no step
applies:

1. build the coercion G_Eq of the current (consistent) Eq;
2. for each GED φ = Q[x̄](X → Y) in Σ and each match h of Q in G_Eq
   with h(x̄) |= X (checked against Eq), enforce each literal of Y not
   yet entailed;
3. if enforcing a literal makes Eq inconsistent — a label conflict from
   an id literal, an attribute conflict from a constant literal, or an
   applicable forbidding constraint (Y = false) — the chase is
   **invalid** with result ⊥;
4. otherwise, when a full pass adds nothing, the sequence is terminal
   and **valid** with result (Eq, G_Eq).

Theorem 1 (reproduced by tests and `benchmarks/bench_thm1_chase_bounds`):
the chase is finite — |Eq| ≤ 4·|G|·|Σ| and every sequence has length
≤ 8·|G|·|Σ| — and Church-Rosser: every terminal sequence yields the
same result regardless of the order in which GEDs are applied.  The
engine therefore accepts an arbitrary application order (`rng`) and a
step `limit`; the deterministic default order is just a convenience.

An eager invalidity check is sound: inconsistency-producing steps stay
applicable-and-inconsistent as Eq grows (Eq only ever gains equalities,
and a superset of an inconsistent relation is inconsistent), so whether
the engine reports ⊥ at first sight or after exhausting valid steps,
the classification of the terminal result is the same — which is also
exactly what Church-Rosser asserts.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.chase.canonical import apply_literal, literal_entailed
from repro.chase.coercion import coerce
from repro.chase.eqrel import EquivalenceRelation
from repro.deps.ged import GED, sigma_size
from repro.deps.literals import FALSE, Literal
from repro.errors import ChaseError
from repro.graph.graph import Graph
from repro.matching.homomorphism import find_homomorphisms


@dataclass(frozen=True)
class ChaseStep:
    """One chase step: GED φ applied via match h, enforcing literal l.

    ``match`` maps pattern variables to *coerced* node ids, i.e. class
    representatives of the graph being chased — exactly the h of
    ``Eq ⇒_(φ,h) Eq'``.  Proof synthesis (Theorem 7 completeness)
    replays these records as GED6 applications.
    """

    ged: GED
    match: tuple[tuple[str, str], ...]
    literal: Literal

    @property
    def assignment(self) -> dict[str, str]:
        return dict(self.match)


@dataclass
class ChaseResult:
    """The result of chasing G by Σ.

    ``consistent`` — whether some (equivalently: every) terminal chasing
    sequence is valid.  If consistent, ``graph`` is the coercion G_Eq
    and ``eq`` the final relation; otherwise the result is ⊥ and
    ``graph``/``eq`` hold the last consistent state for diagnostics,
    with ``reason`` explaining the conflict.
    """

    consistent: bool
    eq: EquivalenceRelation
    graph: Graph
    steps: list[ChaseStep] = field(default_factory=list)
    reason: str | None = None
    rounds: int = 0

    def __bool__(self) -> bool:
        return self.consistent


def chase(
    graph: Graph,
    sigma: Sequence[GED],
    initial_eq: EquivalenceRelation | None = None,
    rng: random.Random | int | None = None,
    max_steps: int | None = None,
) -> ChaseResult:
    """Chase ``graph`` by the GEDs of ``sigma``.

    Parameters
    ----------
    initial_eq:
        start from this relation instead of Eq0 — used by the
        implication check, which chases G_Q starting from Eq_X.  It
        must have been built over ``graph``.  If it is already
        inconsistent the chase is immediately inconsistent (Section
        5.2).
    rng:
        if given, randomize the order in which (GED, match, literal)
        applications are attempted each round.  By Theorem 1 the result
        is the same; the test suite uses this to *verify* Church-Rosser.
    max_steps:
        safety limit on applied steps; defaults to the Theorem 1 bound
        8·|G|·|Σ| (+ slack).  Exceeding it raises :class:`ChaseError`,
        since that would falsify the theorem.
    """
    sigma = list(sigma)
    if initial_eq is None:
        eq = EquivalenceRelation(graph)
    else:
        if initial_eq.graph is not graph:
            raise ChaseError("initial_eq was built over a different graph")
        eq = initial_eq

    if rng is not None and not isinstance(rng, random.Random):
        rng = random.Random(rng)

    bound = 8 * max(1, graph.size()) * max(1, sigma_size(sigma)) + 8
    if max_steps is None:
        max_steps = bound

    steps: list[ChaseStep] = []

    if not eq.is_consistent:
        return ChaseResult(False, eq, graph.copy(), steps, reason=eq.inconsistent_reason)

    coerced = coerce(eq)
    rounds = 0
    while True:
        rounds += 1
        applications = list(_applicable(sigma, coerced, eq))
        if rng is not None:
            rng.shuffle(applications)
        progressed = False
        for ged, match, literal in applications:
            if literal is FALSE:
                # An applicable forbidding constraint invalidates the chase
                # (its Y desugars to two conflicting constants).  The step
                # is recorded so proof synthesis (Theorem 7) can replay it.
                if _satisfies(eq, ged.X, match):
                    steps.append(ChaseStep(ged, tuple(sorted(match.items())), FALSE))
                    reason = f"forbidding constraint applies: {ged}"
                    return ChaseResult(False, eq, coerced, steps, reason, rounds)
                continue
            # Re-check against the *current* Eq (earlier applications in
            # this round may have entailed or enabled this one).
            if not _satisfies(eq, ged.X, match):
                continue
            if literal_entailed(eq, literal, match):
                continue
            apply_literal(eq, literal, match)
            steps.append(ChaseStep(ged, tuple(sorted(match.items())), literal))
            progressed = True
            if not eq.is_consistent:
                return ChaseResult(False, eq, coerced, steps, eq.inconsistent_reason, rounds)
            if len(steps) > max_steps:
                raise ChaseError(
                    f"chase exceeded {max_steps} steps — Theorem 1 bound violated"
                )
        if not progressed:
            return ChaseResult(True, eq, coerced, steps, None, rounds)
        coerced = coerce(eq)


def _applicable(
    sigma: Iterable[GED], coerced: Graph, eq: EquivalenceRelation
):
    """All (GED, match, literal) triples whose X holds in the current Eq.

    Matches are enumerated on the coercion graph by the plan executor:
    the coercion is rebuilt once per round, so each pattern's candidate
    pools are derived once per round — dependencies sharing a pattern
    (GKeys and their copies) share them.  Literal satisfaction is checked
    against Eq (so generated attributes are visible).  Literals already
    entailed are still yielded — the applying loop re-checks, because
    earlier applications within the same round can change entailment
    either way.
    """
    for ged in sigma:
        for match in find_homomorphisms(ged.pattern, coerced):
            if not _satisfies(eq, ged.X, match):
                continue
            for literal in sorted(ged.Y, key=str):
                yield ged, match, literal


def _satisfies(
    eq: EquivalenceRelation, literals: Iterable[Literal], match: Mapping[str, str]
) -> bool:
    return all(literal_entailed(eq, l, match) for l in literals)


def chase_sequence_lengths(result: ChaseResult) -> int:
    """Number of applied steps of a chase result (for bound checks)."""
    return len(result.steps)
