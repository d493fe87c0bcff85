"""The engine's work queue: (dependency, shard) tasks, costed and ordered.

Workers are long-lived and hold the graph, so a task needs to carry only
*references*: the dependency itself (a few literals), the pivot
variable, and the shard's node **ids** — never node data.  The scheduler
turns a rule set into such :class:`TaskUnit`\\ s via the exact sharding
of :mod:`repro.parallel.partition`, estimates each unit's cost, and
orders the queue **largest first**, the classic LPT heuristic: when the
pool drains the queue dynamically, the expensive shards start earliest
and the small ones backfill, which minimizes the makespan tail that
plagues round-robin assignment on skewed data.

Cost estimation uses the attached :mod:`repro.indexing` bundle when
present — a shard's estimated work is the summed (1 + out + in) degree
of its pivot candidates, read from the index's O(1) per-node degree
counters; without an index the graph's adjacency totals serve.  The
estimate only orders the queue; correctness never depends on it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.deps.ged import GED
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.parallel.partition import plan_shards


@dataclass(frozen=True)
class TaskUnit:
    """One (dependency, shard) work unit, referenced by ids only."""

    ged: GED
    ged_position: int  # position of the dependency in Σ (tie-breaking)
    pivot: str
    shard: tuple[str, ...]
    shard_index: int
    est_cost: int

    def __str__(self) -> str:
        return (
            f"{self.ged.name or 'GED'}[shard {self.shard_index}]: "
            f"{len(self.shard)} pivot node(s), est cost {self.est_cost}"
        )


def estimate_shard_cost(graph: Graph, shard: Sequence[str]) -> int:
    """Estimated matcher work for pinning the pivot into ``shard``."""
    index = get_index(graph)
    if index is not None:
        return sum(1 + index.out_degree(node_id) + index.in_degree(node_id) for node_id in shard)
    return sum(1 + graph.out_degree(node_id) + graph.in_degree(node_id) for node_id in shard)


def plan_tasks(graph: Graph, sigma: Sequence[GED], workers: int) -> list[TaskUnit]:
    """All (dependency, shard) units for validating Σ, largest first.

    Sharding is exact (see :mod:`repro.parallel.partition`), so the
    units partition the match space; their execution order is free, and
    the deterministic merge downstream makes the result independent of
    it.  The returned order is itself deterministic: estimated cost
    descending, then Σ position, then shard index.
    """
    units: list[TaskUnit] = []
    for position, ged in enumerate(sigma):
        plan = plan_shards(ged.pattern, graph, workers)
        for shard_index, shard in enumerate(plan.shards):
            units.append(
                TaskUnit(
                    ged=ged,
                    ged_position=position,
                    pivot=plan.pivot,
                    shard=shard,
                    shard_index=shard_index,
                    est_cost=estimate_shard_cost(graph, shard),
                )
            )
    units.sort(key=lambda unit: (-unit.est_cost, unit.ged_position, unit.shard_index))
    return units


def pack_units(units: Sequence[TaskUnit], batches: int) -> list[tuple[TaskUnit, ...]]:
    """Pack cost-ordered units into ≤ ``batches`` balanced batches.

    Greedy LPT: walk the units largest-first and drop each into the
    currently lightest batch.  One batch is one pool round trip, so
    this bounds dispatch overhead at a handful of futures per call
    while the cost balancing keeps the per-worker makespans close.
    Batches come back ordered heaviest-first (the dispatch order).
    """
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    bins: list[list[TaskUnit]] = [[] for _ in range(min(batches, len(units)))]
    loads = [0] * len(bins)
    for unit in sorted(units, key=lambda u: (-u.est_cost, u.ged_position, u.shard_index)):
        lightest = loads.index(min(loads))
        bins[lightest].append(unit)
        loads[lightest] += unit.est_cost
    packed = [tuple(batch) for batch in bins if batch]
    packed.sort(key=lambda batch: -sum(unit.est_cost for unit in batch))
    return packed


__all__ = [
    "TaskUnit",
    "estimate_shard_cost",
    "pack_units",
    "plan_tasks",
]
