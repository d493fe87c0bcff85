"""Sharded (parallel) validation of GEDs on a data graph.

``parallel_find_violations`` finds the violations of Σ that
:func:`repro.reasoning.validation.find_violations` finds, on one of
two backends:

* ``"serial"`` — the whole Σ as one grouped scan in-process
  (:func:`~repro.reasoning.validation.sigma_scan`: one enumeration per
  (pattern, X-restriction) group).  The deterministic reference.  It
  checks the worker count but does not use it, and its report says
  ``workers=1``: cutting the match space into shards in one process
  only adds per-rule planning to the same enumeration.
* ``"engine"`` — real CPU parallelism via the :mod:`repro.engine`
  runtime: each dependency's match space is sharded by a pivot
  variable (see :mod:`repro.parallel.partition`), the graph (and the
  coordinator's index decision) is broadcast **once** as a compact
  snapshot, and shards stream to the workers by reference.  The pool
  is kept **warm** in the engine's graph-keyed registry, so repeated
  validations of the same (unmutated) graph pay the broadcast exactly
  once; :func:`repro.engine.release_pool` tears it down.  At one worker,
  or with an empty Σ, it runs the serial scan.

Both backends return identical, deterministically ordered violations —
a property the test suite asserts — because sharding by a pivot
variable partitions the match set exactly.  Both run the one plan
executor over each pattern's candidate pools, which are derived once
per (graph version, index attachment): in the coordinator for the
serial scan, and once per worker on the engine's immutable snapshot
graph.

Index sharing: when a :mod:`repro.indexing` index is attached to the
graph, the serial scan consults it through the weak registry, and the
engine broadcasts the attachment decision so every worker rebuilds and
consults its own copy.  Either way the violation sets are identical
because candidate pruning is purely a necessary condition.
``ParallelValidationReport.indexed`` records whether the shards (local
or remote) ran indexed.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.deps.ged import GED
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.matching.plan import compile_sigma, execute_over_pools, explain_pools
from repro.reasoning.validation import (
    Violation,
    evaluate_match,
    sigma_scan,
    x_literal_restrictions,
)
from repro.telemetry import metrics as _metrics
from repro.telemetry import slowlog as _slowlog
from repro.telemetry.spans import span
from repro.parallel.partition import choose_pivot

_BACKENDS = ("serial", "engine")


@dataclass(frozen=True)
class ShardStats:
    """Work counters for one (dependency, shard) task."""

    ged_name: str
    shard_index: int
    candidates: int
    matches: int
    violations: int
    seconds: float


@dataclass
class ParallelValidationReport:
    """Merged violations plus per-shard accounting."""

    violations: list[Violation]
    stats: list[ShardStats] = field(default_factory=list)
    backend: str = "serial"
    workers: int = 1
    wall_seconds: float = 0.0
    indexed: bool = False

    @property
    def valid(self) -> bool:
        return not self.violations

    def total_matches(self) -> int:
        return sum(s.matches for s in self.stats)

    def max_shard_seconds(self) -> float:
        return max((s.seconds for s in self.stats), default=0.0)

    def balance(self) -> float:
        """Mean shard work / max shard work in matches (1.0 = perfectly
        balanced, → 0 = one shard did everything)."""
        works = [s.matches for s in self.stats]
        if not works or max(works) == 0:
            return 1.0
        return (sum(works) / len(works)) / max(works)


def run_shard(
    graph: Graph,
    ged: GED,
    pivot: str,
    shard: tuple[str, ...],
    shard_index: int,
) -> tuple[list[Violation], ShardStats]:
    """Validate one dependency on one shard (top-level: picklable).

    This is the kernel of the engine backend, run by its workers
    against their rebuilt graph.  The shard is enforced by
    *restricting* the pivot's candidate pool to the shard's ids in a
    single run of the plan executor
    (:func:`~repro.matching.plan.execute_over_pools`) over the
    pattern's candidate pools — cached per graph version, so a warm
    worker's later shards derive them once.  With
    an index attached the pools are additionally restricted to nodes
    that can satisfy X's constant literals (a necessary condition, so
    the violation set is unchanged — see
    :func:`~repro.reasoning.validation.x_literal_restrictions`).

    With telemetry enabled and a slow-plan threshold configured
    (:mod:`repro.telemetry.slowlog`), a shard that exceeds the
    threshold captures the program it executed — its binding order
    and pivot-restricted pools — with this run's own observed frame
    counts (:func:`~repro.matching.plan.explain_pools`) into the
    slow-plan ring buffer.
    """
    started = time.perf_counter()
    restrict: dict[str, set[str]] = dict(x_literal_restrictions(graph, ged) or {})
    shard_pool = set(shard)
    restrict[pivot] = restrict[pivot] & shard_pool if pivot in restrict else shard_pool
    pools = compile_sigma(graph, (ged.pattern,))[ged.pattern]
    observed: dict[str, list[int]] = {}
    violations: list[Violation] = []
    matches = 0
    for match in execute_over_pools(
        ged.pattern, graph, pools, restrict=restrict, observed=observed
    ):
        matches += 1
        failed = evaluate_match(graph, ged, match)
        if failed:
            violations.append(Violation(ged, tuple(sorted(match.items())), failed))
    elapsed = time.perf_counter() - started
    if _metrics.sink().enabled:
        threshold = _slowlog.slow_plan_threshold()
        if threshold is not None and elapsed >= threshold:
            _slowlog.record_slow_plan(
                ged.name or "GED",
                elapsed,
                explain_pools(ged.pattern, graph, pools, restrict=restrict, observed=observed),
                pivot=pivot,
                shard_index=shard_index,
                shard_nodes=len(shard),
                matches=matches,
            )
    stats = ShardStats(
        ged.name or "GED", shard_index, len(shard), matches, len(violations), elapsed
    )
    return violations, stats


def _run_sigma_batch(
    graph: Graph, sigma: "list[GED]"
) -> list[tuple[list[Violation], ShardStats]]:
    """The serial kernel: Σ as one grouped scan.

    Semantically identical to running :func:`run_shard` once per rule
    over its full (single-shard) pivot pool: at one shard the pivot
    restriction is the rule's whole candidate pool, so the match stream
    equals the X-restricted solo run that
    :func:`~repro.reasoning.validation.sigma_scan` performs once per
    (pattern, restriction) group.  Accounting differences: every rule's
    ``ShardStats.seconds`` is the *batch's* wall clock (a group's
    enumeration cannot be attributed to one member rule), and the
    slow-plan hook does not fire (no per-rule elapsed exists).  Rules
    whose pattern cannot match get no stats row, as their zero-shard
    plans get none on the engine backend.

    The accounting sorts no pool: a rule's ``candidates`` is the size
    of the pivot pool :func:`~repro.parallel.partition.plan_pivot`
    would shard, chosen by the same
    :func:`~repro.parallel.partition.choose_pivot` over the pools the
    scan ran on.
    """
    started = time.perf_counter()
    buckets, match_counts, pools = sigma_scan(graph, sigma)
    elapsed = time.perf_counter() - started
    results: list[tuple[list[Violation], ShardStats]] = []
    for position, ged in enumerate(sigma):
        sizes = {variable: len(pool) for variable, pool in pools[ged.pattern].items()}
        candidates = sizes[choose_pivot(ged.pattern, sizes)]
        if not candidates:
            continue
        results.append(
            (
                buckets[position],
                ShardStats(
                    ged.name or "GED",
                    0,
                    candidates,
                    match_counts[position],
                    len(buckets[position]),
                    elapsed,
                ),
            )
        )
    return results


def parallel_find_violations(
    graph: Graph,
    sigma: Sequence[GED],
    workers: int | None = None,
    backend: str = "serial",
) -> ParallelValidationReport:
    """Find all violations of Σ in G with sharded evaluation.

    ``workers=None`` defaults to one worker per available CPU (capped
    at ``os.cpu_count()``); explicit counts must be positive integers —
    zero or negative counts raise :class:`ValueError`.  The serial
    backend checks the count but runs one scan, and reports one worker.

    The returned violations are sorted (by dependency name, then match)
    so every backend and worker count yields the identical report.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    from repro.engine.pool import resolve_workers

    workers = resolve_workers(workers)
    if backend == "serial":
        workers = 1
    sigma = list(sigma)
    started = time.perf_counter()

    with span("pvalidate", backend=backend, workers=workers, rules=len(sigma)):
        report = _dispatch_backend(graph, sigma, workers, backend)
    report.wall_seconds = time.perf_counter() - started
    sink = _metrics.sink()
    if sink.enabled:
        sink.incr("validate.runs")
        sink.observe(
            "validate.wall_seconds", report.wall_seconds, _metrics.SECONDS_BOUNDS
        )
    return report


def _dispatch_backend(
    graph: Graph,
    sigma: list[GED],
    workers: int,
    backend: str,
) -> ParallelValidationReport:
    results: list[tuple[list[Violation], ShardStats]] = []
    if backend == "engine" and workers > 1 and sigma:
        from repro.engine.pool import get_pool

        pool = get_pool(graph, workers)
        units = pool.plan_validation(graph, sigma)
        if units:
            results = pool.validate_units(units)
        indexed = pool.indexed
    else:
        # Nothing to spread over workers: the whole Σ runs as one
        # grouped scan, enumerating once per (pattern, restriction)
        # group instead of once per rule (identical violations; each
        # rule's ShardStats carries the batch's wall clock).
        results = _run_sigma_batch(graph, sigma)
        indexed = get_index(graph) is not None

    violations: list[Violation] = []
    stats: list[ShardStats] = []
    for shard_violations, shard_stats in results:
        violations.extend(shard_violations)
        stats.append(shard_stats)
    violations.sort(key=lambda v: (v.ged.name or "", str(v.ged), v.match))
    stats.sort(key=lambda s: (s.ged_name, s.shard_index))
    return ParallelValidationReport(
        violations,
        stats,
        backend,
        workers,
        0.0,  # stamped by the caller (wall includes the merge)
        indexed=indexed,
    )


def parallel_validates(
    graph: Graph,
    sigma: Sequence[GED],
    workers: int | None = None,
    backend: str = "serial",
) -> bool:
    """G |= Σ via sharded evaluation (Theorem 6's decision problem)."""
    return parallel_find_violations(graph, sigma, workers, backend).valid


__all__ = [
    "ParallelValidationReport",
    "ShardStats",
    "parallel_find_violations",
    "parallel_validates",
    "run_shard",
]
