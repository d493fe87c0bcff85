"""Sharding the match space of a pattern.

A match of Q[x̄] assigns the *pivot* variable one concrete node, so
partitioning the pivot's candidate set into k disjoint blocks partitions
the match set itself: every match lands in exactly one block (the one
holding its pivot image).  Enumerating each block independently with the
pivot's pool restricted to the block (the matcher's ``restrict``
parameter) and unioning results is therefore exact.  The pivot's pool is
the matcher's own cached candidate pool
(:func:`~repro.matching.plan.compile_sigma`).

Pivot choice matters for balance: we pick the variable with the largest
candidate set, which yields the most granular partition (a pivot with 3
candidates cannot feed more than 3 workers).  Candidates are sorted and
dealt round-robin so shard sizes differ by at most one node; actual
match work per shard can still be skewed by the data — the per-shard
counters in :mod:`repro.parallel.validate` expose that skew.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.matching.plan import compile_sigma
from repro.patterns.pattern import Pattern


@dataclass(frozen=True)
class ShardPlan:
    """How one pattern's match space is split across workers.

    ``pivot`` — the sharded variable; ``shards`` — disjoint candidate
    blocks whose union is the pivot's full candidate set.  Empty shards
    are dropped, so ``len(shards)`` ≤ the requested worker count.
    """

    pattern: Pattern
    pivot: str
    shards: tuple[tuple[str, ...], ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def total_candidates(self) -> int:
        return sum(len(shard) for shard in self.shards)


def plan_pivot(pattern: Pattern, graph: Graph) -> tuple[str, list[str]]:
    """The sharding pivot and its full candidate pool, in ascending id
    order — the single definition every shard planner uses (round-robin
    shards here, ownership partitions in the fragment planner).

    The pools are the matcher's own
    (:func:`~repro.matching.plan.compile_sigma`, cached per graph
    version), so repeated shard planning (the scheduler per Σ rule)
    never re-derives candidate sets; only the pivot's pool is sorted.
    When any variable's pool is empty the pattern cannot match: the
    returned pool is empty and the pivot is the (first) emptiest
    variable (:func:`choose_pivot`).
    """
    pools = compile_sigma(graph, (pattern,))[pattern]
    sizes = {variable: len(pools[variable]) for variable in pattern.variables}
    pivot = choose_pivot(pattern, sizes)
    return pivot, sorted(pools[pivot])


def choose_pivot(pattern: Pattern, sizes: Mapping[str, int]) -> str:
    """The pivot for per-variable candidate-pool sizes: the (first)
    largest pool.  When any pool is empty the pattern cannot match and
    the pivot is the (first) emptiest variable, so a pivot pool of size
    0 tells every caller the pattern has no match."""
    if any(size == 0 for size in sizes.values()):
        return min(pattern.variables, key=lambda v: sizes[v])
    return max(pattern.variables, key=lambda v: sizes[v])


def plan_shards(pattern: Pattern, graph: Graph, workers: int) -> ShardPlan:
    """Split ``pattern``'s match space in ``graph`` into ≤ ``workers`` shards.

    With an empty candidate set for the pivot (the pattern cannot match)
    the plan has zero shards and validation is trivially clean for this
    pattern.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pivot, ordered = plan_pivot(pattern, graph)
    if not ordered:
        return ShardPlan(pattern, pivot, ())
    blocks: list[list[str]] = [[] for _ in range(min(workers, len(ordered)))]
    for index, node_id in enumerate(ordered):
        blocks[index % len(blocks)].append(node_id)
    return ShardPlan(pattern, pivot, tuple(tuple(block) for block in blocks))


__all__ = ["ShardPlan", "choose_pivot", "plan_pivot", "plan_shards"]
