"""The persistent worker-pool runtime.

One :class:`EnginePool` owns a :class:`~concurrent.futures.ProcessPoolExecutor`
whose **initializer** receives the pickled
:class:`~repro.engine.snapshot.GraphSnapshot` exactly once per worker.
Each worker rebuilds the graph (and, when the coordinator had one, the
index) into a module-level slot at startup; every subsequent task then
ships only references — a dependency, a pivot variable, shard node ids —
and executes against the warm worker state.  This replaces the old
per-task pickling of the whole graph with a one-time broadcast: the
replicated-graph execution model of parallel validation.

Pools are cached in a process-wide *weak* registry keyed by the graph
object (mirroring :mod:`repro.indexing.registry`) and guarded by the
graph's mutation version: a second validation call on the same graph
reuses the warm workers with zero broadcast cost, while any mutation —
or a change in worker count or index attachment — retires the stale
pool and builds a fresh one.  Dropping the last reference to a graph
lets both its index and its pool be collected.

Workers match like every other consumer: each derives a pattern's
candidate pools on the first shard that needs them and keeps them on
its restored graph (:mod:`repro.matching.view`) for its lifetime.
"""

from __future__ import annotations

import atexit
import os
import weakref
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

from repro.deps.ged import GED
from repro.graph.graph import Graph
from repro.indexing.registry import get_index
from repro.patterns.pattern import Pattern
from repro.telemetry import metrics as _metrics
from repro.telemetry import spans as _spans
from repro.telemetry import trace as _trace
from repro.utils.registry import WeakIdRegistry

from repro.engine.scheduler import TaskUnit
from repro.engine.snapshot import GraphSnapshot, snapshot_graph

# ----------------------------------------------------------------------
# Worker-side state and task entry points (top level: importable by the
# executor's pickler; populated once by the pool initializer).
# ----------------------------------------------------------------------

_WORKER_GRAPH: Graph | None = None


def _initialize_worker(payload: bytes) -> None:
    """Pool initializer: rebuild graph (+ index) from the broadcast.

    Candidate pools memoize automatically from here on: the worker
    graph never mutates (a coordinator mutation retires the whole
    pool), so the pools cached on it (:mod:`repro.matching.view`) stay
    warm for the worker's lifetime and serve every later shard of the
    same pattern.
    """
    import pickle

    global _WORKER_GRAPH
    snapshot: GraphSnapshot = pickle.loads(payload)
    _WORKER_GRAPH = snapshot.restore()


def _worker_graph() -> Graph:
    if _WORKER_GRAPH is None:
        raise RuntimeError("engine worker used before its snapshot broadcast")
    return _WORKER_GRAPH


def _validate_batch(
    batch: tuple[TaskUnit, ...], collect: bool = False, trace=None
):
    """Run a batch of (dependency, shard) units on the warm graph.

    One batch is one round trip: the scheduler packs units so a call
    dispatches a handful of balanced futures instead of one per unit.
    Candidate pools are derived once per pattern and stay cached on
    the worker's graph for its lifetime — the shard kernel finds them
    warm through the ordinary matching API.

    ``collect=True`` (the coordinator's telemetry is enabled) runs the
    batch under a fresh metrics registry and returns ``(results,
    snapshot)`` — the worker-side half of cross-process aggregation.
    ``trace`` (a :class:`~repro.telemetry.trace.TraceContext`) runs the
    batch under the coordinator's trace so worker spans land in its
    causal tree; they ride home inside the snapshot.  The default
    return shape is unchanged.
    """
    from repro.parallel.validate import run_shard

    graph = _worker_graph()
    if not collect:
        return [
            run_shard(graph, unit.ged, unit.pivot, unit.shard, unit.shard_index)
            for unit in batch
        ]
    with _metrics.collecting() as registry:
        with _trace.tracing(trace), _spans.span("engine.batch", units=len(batch)):
            results = [
                run_shard(graph, unit.ged, unit.pivot, unit.shard, unit.shard_index)
                for unit in batch
            ]
    return results, _spans.collected_snapshot(registry)


def _count_chunk(patterns: tuple[Pattern, ...]) -> list[int]:
    """Match counts for a contiguous chunk of patterns on the warm graph
    (discovery); the coordinator flattens chunk results in dispatch
    order, so the combined list equals per-pattern counting."""
    from repro.matching.homomorphism import count_matches

    graph = _worker_graph()
    return [count_matches(pattern, graph) for pattern in patterns]


def _suggest_unit(violation, allow_backward: bool):
    """Suggest repair plans for one violation on the warm graph."""
    from repro.repair.suggest import suggest_repairs

    return suggest_repairs(_worker_graph(), violation, allow_backward=allow_backward)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


def resolve_workers(workers: int | None) -> int:
    """Validate and default a worker count.

    ``None`` means "one worker per available CPU" — the default is
    capped at ``os.cpu_count()`` so unconfigured callers never
    oversubscribe.  Explicit counts are honored as given (more workers
    than cores is a legitimate ask: shard granularity, or I/O-bound
    custom tasks) but must be positive integers.
    """
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if workers < 1:
        raise ValueError(
            f"workers must be a positive integer, got {workers} "
            "(use workers=1 or backend='serial' for single-threaded runs)"
        )
    return workers


class EnginePool:
    """A warm process pool bound to one (graph, version) snapshot."""

    def __init__(self, snapshot: GraphSnapshot, workers: int):
        self.snapshot = snapshot
        self.workers = workers
        self.version = snapshot.version
        self.indexed = snapshot.indexed
        payload = snapshot.payload()  # pickle the broadcast exactly once
        self.tasks_dispatched = 0
        self.calls = 0
        self.closed = False
        self.broadcast_bytes = len(payload)
        sink = _metrics.sink()
        sink.incr("engine.pools_built")
        sink.incr("engine.broadcast_bytes", self.broadcast_bytes)
        self._plan_cache: dict[tuple[GED, ...], list[TaskUnit]] = {}
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_initialize_worker,
            initargs=(payload,),
        )

    # -- generic dispatch ----------------------------------------------
    def _map(self, fn, argument_tuples: Sequence[tuple]) -> list:
        if self.closed:
            raise RuntimeError("engine pool is closed")
        self.calls += 1
        self.tasks_dispatched += len(argument_tuples)
        futures = [self._executor.submit(fn, *args) for args in argument_tuples]
        return [future.result() for future in futures]

    def plan_validation(self, graph: Graph, sigma: Sequence[GED]) -> list:
        """The scheduled work queue for validating Σ, memoized per rule
        set: the pool pins one graph version and one worker count, so
        an unchanged Σ reuses its plan on every warm call."""
        from repro.engine.scheduler import plan_tasks

        key = tuple(sigma)
        units = self._plan_cache.get(key)
        if units is None:
            units = plan_tasks(graph, sigma, self.workers)
            self._plan_cache[key] = units
        return units

    # -- the three workload adapters -----------------------------------
    def validate_units(self, units: Sequence[TaskUnit]) -> list:
        """Execute scheduled validation units, packed into at most
        ``2 * workers`` balanced round trips; the flat result list is
        unordered across batches (the caller merges and sorts
        deterministically)."""
        from repro.engine.scheduler import pack_units

        batches = pack_units(units, self.workers * 2)
        sink = _metrics.sink()
        if not sink.enabled:
            results = self._map(_validate_batch, [(batch,) for batch in batches])
            return [shard_result for batch in results for shard_result in batch]
        loads = [sum(unit.est_cost for unit in batch) for batch in batches if batch]
        if loads:
            mean = sum(loads) / len(loads)
            sink.gauge("engine.lpt_imbalance", max(loads) / mean if mean else 1.0)
        ctx = _trace.propagation_context()
        collected = self._map(_validate_batch, [(batch, True, ctx) for batch in batches])
        flat = []
        for batch_results, snapshot in collected:
            sink.merge(snapshot)
            _spans.absorb_remote(snapshot)
            flat.extend(batch_results)
        return flat

    def count_patterns(self, patterns: Sequence[Pattern]) -> list[int]:
        """Match counts for many patterns (discovery's support scan).

        Patterns are dispatched in contiguous chunks — at most
        ``2 * workers`` — so a task carries several patterns instead of
        one; each is counted worker-side by ``count_matches``.
        Flattening in dispatch order keeps the result order identical
        to per-pattern counting.
        """
        patterns = list(patterns)
        if not patterns:
            return []
        chunks = max(1, min(len(patterns), self.workers * 2))
        size, extra = divmod(len(patterns), chunks)
        slices: list[tuple[Pattern, ...]] = []
        start = 0
        for chunk_index in range(chunks):
            stop = start + size + (1 if chunk_index < extra else 0)
            if stop > start:
                slices.append(tuple(patterns[start:stop]))
            start = stop
        results = self._map(_count_chunk, [(chunk,) for chunk in slices])
        return [count for chunk_counts in results for count in chunk_counts]

    def suggest_repairs(self, violations: Sequence, allow_backward: bool = True) -> list:
        """Per-violation repair plans (repair's suggestion fan-out)."""
        return self._map(_suggest_unit, [(violation, allow_backward) for violation in violations])

    def close(self) -> None:
        """Shut the workers down and join them; the pool cannot be reused.

        Joining matters at interpreter exit: an unjoined executor's
        manager thread can still be closing its wake-up pipe when
        ``concurrent.futures``' exit hook writes to it, which prints an
        ignored ``OSError: [Errno 9] Bad file descriptor``.
        """
        if not self.closed:
            self.closed = True
            self._executor.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EnginePool(workers={self.workers}, version={self.version}, "
            f"indexed={self.indexed}, broadcast={self.broadcast_bytes}B, "
            f"dispatched={self.tasks_dispatched})"
        )


# Identity-keyed for the same reason as repro.indexing.registry: a
# WeakKeyDictionary probe would pay a structural Graph.__eq__ per call.
_pools: WeakIdRegistry = WeakIdRegistry()


def get_pool(
    graph: Graph,
    workers: int | None = None,
    *,
    ensure_index: bool = False,
) -> EnginePool:
    """The warm pool for ``graph``, broadcasting a snapshot only when
    no current pool matches (same mutation version, worker count, and
    index attachment — any mismatch retires the old pool).
    """
    resolved = resolve_workers(workers)
    if ensure_index:
        # Attaching registers in the weak index registry only; the
        # graph itself (and its version) is untouched.
        from repro.indexing.registry import attach_index

        if get_index(graph) is None:
            attach_index(graph)
    indexed = get_index(graph) is not None
    sink = _metrics.sink()
    pool = _pools.get(graph)
    if (
        pool is not None
        and not pool.closed
        and pool.version == graph.version
        and pool.workers == resolved
        and pool.indexed == indexed
    ):
        sink.incr("engine.pool.warm_hits")
        return pool
    if pool is not None:
        if pool.closed:
            sink.incr("engine.pool.invalidated.closed")
        elif pool.version != graph.version:
            sink.incr("engine.pool.invalidated.version")
        elif pool.workers != resolved:
            sink.incr("engine.pool.invalidated.workers")
        else:
            sink.incr("engine.pool.invalidated.index")
        pool.close()
    sink.incr("engine.pool.cold_builds")
    pool = EnginePool(snapshot_graph(graph), resolved)
    _pools.set(graph, pool)
    # The registry holds the graph weakly: when the graph is collected
    # the pool entry vanishes, so close the workers right then instead
    # of waiting for the executor's own GC-driven shutdown (mutation
    # churn — e.g. the repair loop's per-round copies — would otherwise
    # leave idle worker processes lingering at the GC's discretion).
    weakref.finalize(graph, pool.close)
    return pool


def pool_for(graph: Graph) -> EnginePool | None:
    """The registered pool for ``graph``, if any (stats/tests)."""
    return _pools.get(graph)


def release_pool(graph: Graph) -> None:
    """Close and drop the pool for one graph, leaving others warm."""
    pool = _pools.pop(graph, None)
    if pool is not None:
        pool.close()


def shutdown_pools() -> None:
    """Close every registered pool (tests and interpreter exit)."""
    for pool in list(_pools.values()):
        pool.close()
    _pools.clear()


atexit.register(shutdown_pools)

__all__ = [
    "EnginePool",
    "get_pool",
    "pool_for",
    "release_pool",
    "resolve_workers",
    "shutdown_pools",
]
