"""Sharded (parallel) validation of GEDs on a data graph.

``parallel_find_violations`` distributes the work of
:func:`repro.reasoning.validation.find_violations` across shards of the
match space (see :mod:`repro.parallel.partition`) and merges the
results.  Five backends:

* ``"serial"`` — runs shards in-process, one after the other.  Zero
  overhead; the deterministic reference and the 1-worker baseline.
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  Python's GIL serializes the pure-Python matcher, so this measures
  pool overhead rather than speedup; kept because it exercises the
  same code path with true concurrency (thread-safety check) and
  because backends with C-level matchers would profit.
* ``"process"`` — real CPU parallelism via the
  :mod:`repro.engine` runtime: the graph (and the coordinator's index
  decision) is broadcast **once** as a compact snapshot when the pool
  starts, workers rebuild graph+index, and shards stream to them by
  reference.  The pool is torn down when the call returns.
* ``"engine"`` — the same runtime, but the pool is kept **warm** in
  the engine's graph-keyed registry: repeated validations of the same
  (unmutated) graph pay the broadcast exactly once.  This is the
  backend for serving workloads that revalidate after every batch.
* ``"fragment"`` — the data itself is partitioned: the graph is
  edge-cut into ``workers`` fragments (:mod:`repro.graph.fragments`)
  and each dependency runs fragment-locally wherever the
  ball-completeness rule guarantees exactness, with cut-crossing
  pivots escalated to one whole-graph residual pass.  In-process and
  deterministic; :class:`repro.engine.pool.FragmentPool` is the
  fragment-*resident* process variant whose per-worker broadcast is
  O(|G|/k + borders) instead of O(|G|).

All backends return identical, deterministically ordered violations —
a property the test suite asserts — because sharding by a pivot
variable partitions the match set exactly.

Index sharing: when a :mod:`repro.indexing` index is attached to the
graph, in-process shards (serial and thread backends) consult the
*same immutable* :class:`GraphIndexes` through the weak registry, and
the engine-backed backends broadcast the attachment decision so every
worker rebuilds and consults its own copy.  Either way the violation
sets are identical because candidate pruning is purely a necessary
condition.  ``ParallelValidationReport.indexed`` records whether the
shards (local or remote) ran indexed.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.deps.ged import GED
from repro.graph.fragments import Fragmentation, get_fragments
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.matching.homomorphism import find_homomorphisms
from repro.matching.locality import pivot_radius, split_local_pivots
from repro.reasoning.validation import (
    Violation,
    evaluate_match,
    sigma_scan,
    x_literal_restrictions,
)
from repro.telemetry import metrics as _metrics
from repro.telemetry import slowlog as _slowlog
from repro.telemetry.spans import span
from repro.parallel.partition import choose_pivot, plan_pivot, plan_shards

_BACKENDS = ("serial", "thread", "process", "engine", "fragment")


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

    This is the kernel every backend shares — in-process shards call it
    directly, engine workers call it against their rebuilt graph.  The
    shard is enforced by *restricting* the pivot's candidate pool to
    the shard's ids in a single matcher invocation, which executes the
    pattern's compiled :class:`~repro.matching.plan.MatchPlan` — cached
    on the graph's view, so in-process shards and a warm worker's later
    shards all reuse one compilation (engine workers may even start
    with it pre-installed from the snapshot broadcast).  With an index
    attached the pools are additionally restricted to nodes that can
    satisfy X's constant literals (a necessary condition, so the
    violation set is unchanged — see
    :func:`~repro.reasoning.validation.x_literal_restrictions`).

    With telemetry enabled and a slow-plan threshold configured
    (:mod:`repro.telemetry.slowlog`), a shard that exceeds the
    threshold captures the executed plan's
    ``MatchPlan.explain(observed=True)`` into the slow-plan ring
    buffer — the plan is view-cached, so re-compiling to explain it is
    a lookup, and the observed frame counts are the ones this very
    workload accumulated.
    """
    started = time.perf_counter()
    restrict: dict[str, set[str]] = dict(x_literal_restrictions(graph, ged) or {})
    shard_pool = set(shard)
    restrict[pivot] = restrict[pivot] & shard_pool if pivot in restrict else shard_pool
    violations: list[Violation] = []
    matches = 0
    for match in find_homomorphisms(ged.pattern, graph, restrict=restrict):
        matches += 1
        failed = evaluate_match(graph, ged, match)
        if failed:
            violations.append(Violation(ged, tuple(sorted(match.items())), failed))
    elapsed = time.perf_counter() - started
    if _metrics.sink().enabled:
        threshold = _slowlog.slow_plan_threshold()
        if threshold is not None and elapsed >= threshold:
            from repro.matching.plan import compile_plan

            # The plan is cached on the graph's view — this is a lookup,
            # not a re-compilation — and its observed totals are the
            # ones this shard's execution just accumulated.
            plan = compile_plan(graph, ged.pattern)
            _slowlog.record_slow_plan(
                ged.name or "GED",
                elapsed,
                plan.explain(observed=True),
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
    """The 1-worker serial kernel as one grouped Σ scan.

    Semantically identical to running :func:`run_shard` once per rule
    over its full (single-shard) pivot pool: at one shard the pivot
    restriction is the rule's whole candidate pool, so the match stream
    equals the X-restricted solo run that
    :func:`~repro.reasoning.validation.sigma_scan` performs once per
    (pattern, restriction) group.  Accounting differences: every rule's
    ``ShardStats.seconds`` is the *batch's* wall clock (a group's
    enumeration cannot be attributed to one member rule), and the
    slow-plan hook does not fire (no per-rule elapsed exists).  Rules
    whose pattern cannot match keep getting no stats row, exactly like
    the zero-shard plans they replace.

    Like the scan, the accounting builds no graph view: a rule's
    ``candidates`` is the size of the pivot pool
    :func:`~repro.parallel.partition.plan_pivot` would shard, chosen by
    the same :func:`~repro.parallel.partition.choose_pivot` over the
    pools the scan ran on.
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


def plan_fragment_pivots(
    graph: Graph, ged: GED, fragmentation: Fragmentation
) -> tuple[str, list[tuple[int, list[str]]], list[str]]:
    """Fragment-resident work for one dependency: the pivot variable,
    per-fragment locally decidable pivot lists, and the escalated rest.

    The pivot and its candidate pool come from the compiled
    :class:`~repro.matching.plan.MatchPlan` (the same choice
    :func:`~repro.parallel.partition.plan_shards` makes); ownership
    partitions the pool exactly, and within each fragment the
    ball-completeness rule (:func:`~repro.matching.locality.split_local_pivots`)
    keeps only pivots whose pattern-radius ball closes inside
    interior ∪ border — the rest ship back for a coordinator-side
    whole-graph pass.
    """
    pattern = ged.pattern
    pivot, pool = plan_pivot(pattern, graph)
    if not pool:
        return pivot, [], []
    radius = pivot_radius(pattern, pivot)
    # One pass over the pool via the owner map (not one pool scan per
    # fragment); the pool is ascending, so buckets stay sorted.
    by_fragment: dict[int, list[str]] = {}
    owner = fragmentation.owner
    for node_id in pool:
        by_fragment.setdefault(owner[node_id], []).append(node_id)
    per_fragment: list[tuple[int, list[str]]] = []
    escalated: list[str] = []
    for fragment_index in sorted(by_fragment):
        fragment = fragmentation.fragments[fragment_index]
        local, shipped = split_local_pivots(
            fragment.graph, fragment.interior, by_fragment[fragment_index], radius
        )
        if local:
            per_fragment.append((fragment.index, local))
        escalated.extend(shipped)
    return pivot, per_fragment, sorted(escalated)


def run_fragment_validation(
    graph: Graph,
    sigma: Sequence[GED],
    fragmentation: Fragmentation,
) -> list[tuple[list[Violation], ShardStats]]:
    """Validate Σ fragment-locally, escalating cut-crossing pivots.

    Each fragment-local call is the ordinary :func:`run_shard` kernel on
    the fragment's induced subgraph — the PR 4 plan executor unchanged,
    compiling (and caching) one plan per (fragment, pattern).  The
    escalation pass runs the same kernel once per dependency on the
    whole graph, restricted to the residual pivot set; the merged
    violations are exactly the serial backend's because ownership plus
    the ball-completeness rule partition the match space.
    """
    k = fragmentation.k
    sink = _metrics.sink()
    results: list[tuple[list[Violation], ShardStats]] = []
    for ged in sigma:
        pivot, per_fragment, escalated = plan_fragment_pivots(graph, ged, fragmentation)
        for fragment_index, pivots in per_fragment:
            fragment = fragmentation.fragments[fragment_index]
            sink.incr("fragment.pivots.local", len(pivots))
            frames_before = sink.counter_value("plan.frames_expanded")
            results.append(
                run_shard(fragment.graph, ged, pivot, tuple(pivots), fragment_index)
            )
            if sink.enabled:
                sink.incr(
                    f"fragment.frames_expanded.fragment{fragment_index}",
                    sink.counter_value("plan.frames_expanded") - frames_before,
                )
        if escalated:
            sink.incr("fragment.pivots.escalated", len(escalated))
            frames_before = sink.counter_value("plan.frames_expanded")
            # Shard index k = "the coordinator's escalation shard".
            results.append(run_shard(graph, ged, pivot, tuple(escalated), k))
            if sink.enabled:
                sink.incr(
                    "fragment.frames_expanded.coordinator",
                    sink.counter_value("plan.frames_expanded") - frames_before,
                )
    return results


def parallel_find_violations(
    graph: Graph,
    sigma: Sequence[GED],
    workers: int | None = None,
    backend: str = "serial",
    *,
    fragmentation: Fragmentation | None = None,
    fragment_mode: str = "hash",
) -> ParallelValidationReport:
    """Find all violations of Σ in G with sharded evaluation.

    ``workers=None`` defaults to one worker per available CPU (capped
    at ``os.cpu_count()``); explicit counts must be positive integers —
    zero or negative counts raise :class:`ValueError`.

    For the ``"fragment"`` backend ``workers`` doubles as the fragment
    count: the graph is edge-cut partitioned (``fragment_mode`` picks
    the partitioner; a prebuilt ``fragmentation`` overrides both) and
    each dependency is validated fragment-locally where the
    ball-completeness rule allows, with cut-crossing pivots escalated
    to one whole-graph residual pass.

    The returned violations are sorted (by dependency name, then match)
    so every backend and worker count yields the identical report.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    from repro.engine.pool import resolve_workers

    workers = resolve_workers(workers)
    sigma = list(sigma)
    started = time.perf_counter()

    with span("pvalidate", backend=backend, workers=workers, rules=len(sigma)):
        report = _dispatch_backend(graph, sigma, workers, backend, fragmentation, fragment_mode)
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
    fragmentation: Fragmentation | None,
    fragment_mode: str,
) -> ParallelValidationReport:
    engine_backed = backend in ("process", "engine") and workers > 1 and bool(sigma)
    results: list[tuple[list[Violation], ShardStats]] = []
    indexed = False

    if backend == "fragment":
        if fragmentation is None:
            fragmentation = get_fragments(graph, workers, fragment_mode)
        elif fragmentation.source_version != graph.version:
            # Same guard FragmentPool.validate applies: fragment-local
            # shards on a stale partition merged with escalations on the
            # fresh graph would be neither pre- nor post-mutation.
            raise ValueError(
                f"fragmentation is stale: graph version {graph.version} != "
                f"partitioned version {fragmentation.source_version} "
                "(repartition, or drop the fragmentation= argument)"
            )
        results = run_fragment_validation(graph, sigma, fragmentation)
        indexed = get_index(graph) is not None
    elif engine_backed and backend == "engine":
        from repro.engine.pool import get_pool

        pool = get_pool(graph, workers, patterns=[ged.pattern for ged in sigma])
        units = pool.plan_validation(graph, sigma)
        if units:
            results = pool.validate_units(units)
        indexed = pool.indexed
    elif engine_backed:
        # "process" is one-shot *and private*: it builds its own pool
        # (cold broadcast) and closes it, never touching — or silently
        # reusing — a warm "engine" pool registered for this graph.
        from repro.engine.pool import EnginePool
        from repro.engine.scheduler import plan_tasks
        from repro.engine.snapshot import snapshot_graph

        units = plan_tasks(graph, sigma, workers)
        if units:
            pool = EnginePool(
                snapshot_graph(graph, patterns=[ged.pattern for ged in sigma]), workers
            )
            try:
                results = pool.validate_units(units)
                indexed = pool.indexed
            finally:
                pool.close()
        else:
            indexed = get_index(graph) is not None
    elif backend == "serial" and workers == 1 and len(sigma) > 1:
        # One worker, many rules: there is nothing to shard, so the
        # whole Σ runs as one grouped scan, enumerating once per
        # (pattern, restriction) group instead of once per rule
        # (identical violations; each rule's ShardStats carries the
        # batch's wall clock).
        results = _run_sigma_batch(graph, sigma)
        indexed = get_index(graph) is not None
    else:
        tasks: list[tuple[GED, str, tuple[str, ...], int]] = []
        for ged in sigma:
            plan = plan_shards(ged.pattern, graph, workers)
            for index, shard in enumerate(plan.shards):
                tasks.append((ged, plan.pivot, shard, index))
        if backend == "thread" and workers > 1 and tasks:
            with ThreadPoolExecutor(max_workers=workers) as executor:
                futures = [
                    executor.submit(run_shard, graph, ged, pivot, shard, index)
                    for ged, pivot, shard, index in tasks
                ]
                results = [future.result() for future in futures]
        else:
            for ged, pivot, shard, index in tasks:
                results.append(run_shard(graph, ged, pivot, shard, index))
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
    "plan_fragment_pivots",
    "run_fragment_validation",
    "run_shard",
]
