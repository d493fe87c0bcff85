"""Candidate pattern enumeration for discovery.

Profiles the data graph's *observed schema*: which node labels exist,
and which (source label, edge label, target label) triples occur.  Each
schema element becomes a candidate pattern whose support is its match
count.  Single nodes and single edges cover the overwhelming share of
real-world pattern shapes (the paper cites 97%+ single-triple patterns
in SWDF); two-edge paths are available behind a flag for workloads like
Example 1's country→capital pairs.

Support counting is the profiling hot path — one full match enumeration
per schema pattern — so it can run on the :mod:`repro.engine` worker
pool: pass ``workers`` > 1 and the counts are computed by warm workers
holding a broadcast copy of the graph (and its index, when attached),
one pattern reference per task.  Counts, filtering, and output order are
identical to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.matching.homomorphism import count_matches
from repro.patterns.pattern import Pattern


@dataclass(frozen=True)
class CandidatePattern:
    """A pattern plus its support (match count) in the profiled graph."""

    pattern: Pattern
    support: int
    shape: str  # "node" | "edge" | "path" | "fork"

    def __str__(self) -> str:
        return f"{self.shape}[{', '.join(self.pattern.variables)}] (support {self.support})"


def enumerate_candidate_patterns(
    graph: Graph,
    min_support: int = 1,
    include_paths: bool = False,
    include_forks: bool = False,
    workers: int | None = 1,
) -> list[CandidatePattern]:
    """Candidate patterns from the graph's observed schema.

    * one single-node pattern ``(x: L)`` per node label L;
    * one single-edge pattern ``(x: L1)-[e]->(y: L2)`` per observed
      labeled-edge schema triple;
    * with ``include_paths``, two-edge chain patterns for composable
      triple pairs; with ``include_forks``, two-edge out-forks sharing
      the source variable (the Example 1 capital/capital shape).

    Patterns below ``min_support`` matches are dropped.  Output is
    deterministic: sorted by (shape, pattern signature).  With
    ``workers`` > 1 (or ``None`` for one per CPU) the match counting
    fans out over the engine pool; the result is unchanged.
    """
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")

    schema_triples: set[tuple[str, str, str]] = set()
    for source, edge_label, target in graph.edges:
        schema_triples.add(
            (graph.node(source).label, edge_label, graph.node(target).label)
        )

    candidates: list[CandidatePattern] = []

    for label in sorted(graph.labels):
        pattern = Pattern({"x": label})
        support = len(graph.nodes_with_label(label))
        if support >= min_support:
            candidates.append(CandidatePattern(pattern, support, "node"))

    # Counted patterns, in deterministic construction order; support is
    # filled in below (serially, or fanned out over the engine pool).
    counted: list[tuple[str, Pattern]] = []

    for source_label, edge_label, target_label in sorted(schema_triples):
        counted.append(
            (
                "edge",
                Pattern(
                    {"x": source_label, "y": target_label},
                    [("x", edge_label, "y")],
                ),
            )
        )

    if include_paths:
        for first in sorted(schema_triples):
            for second in sorted(schema_triples):
                if first[2] != second[0]:
                    continue
                counted.append(
                    (
                        "path",
                        Pattern(
                            {"x": first[0], "y": first[2], "z": second[2]},
                            [("x", first[1], "y"), ("y", second[1], "z")],
                        ),
                    )
                )

    if include_forks:
        for first in sorted(schema_triples):
            for second in sorted(schema_triples):
                if first[0] != second[0] or (first, second) > (second, first):
                    continue
                counted.append(
                    (
                        "fork",
                        Pattern(
                            {"x": first[0], "y": first[2], "z": second[2]},
                            [("x", first[1], "y"), ("x", second[1], "z")],
                        ),
                    )
                )

    supports = _count_supports(graph, [pattern for _, pattern in counted], workers)
    for (shape, pattern), support in zip(counted, supports):
        if support >= min_support:
            candidates.append(CandidatePattern(pattern, support, shape))

    return candidates


def _count_supports(
    graph: Graph, patterns: list[Pattern], workers: int | None
) -> list[int]:
    """Match counts for ``patterns``, serially or on the engine pool.

    Each pattern is counted by
    :func:`~repro.matching.homomorphism.count_matches`, which adds the
    deepest step's candidate count per frame instead of materializing
    matches.  The engine path dispatches the patterns in contiguous
    chunks.
    """
    if workers != 1 and len(patterns) > 1:
        from repro.engine.pool import get_pool, resolve_workers

        if resolve_workers(workers) > 1:
            return get_pool(graph, workers).count_patterns(patterns)
    return [count_matches(pattern, graph) for pattern in patterns]


__all__ = ["CandidatePattern", "enumerate_candidate_patterns"]
