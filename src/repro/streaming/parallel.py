"""The engine-backed delta path: changed-node pivots over warm workers.

A streaming graph mutates every batch, which is exactly what the engine
pool registry treats as grounds for retiring a warm pool — so the
streaming path cannot use :func:`repro.engine.pool.get_pool` (it would
re-broadcast the whole graph per batch and lose to serial immediately).
:class:`EngineDeltaExecutor` instead owns a *private*
:class:`~repro.engine.pool.EnginePool` and keeps its workers warm by
**replicating the update stream** rather than re-snapshotting the graph:

* the coordinator appends every batch to a bounded replication log,
  stamped with a monotone sequence number;
* each delta task ships the log tail alongside its pivot shard; a worker
  first fast-forwards its replica (applying, through the ordinary
  validating + index-maintaining path, exactly the batches it has not
  seen — workers that served the previous batch apply one, workers that
  sat idle catch up), then runs the pivot-pinned kernel of
  :func:`~repro.streaming.delta.delta_violations` on its shard;
* when the log outgrows ``max_pending`` batches the executor
  re-broadcasts a fresh snapshot — the streaming analogue of the update
  log's periodic checkpoints — and the log resets.

Shards partition the pivots — the ledger passes its batch footprint's
node pins plus its edge pins' endpoints
(:meth:`~repro.streaming.delta.Footprint.pivots`), an exact superset
of what its serial kernel pins — so each worker pins only its
own pivots; one match meeting pivots in two shards is found
twice and de-duplicated (deterministically) at the merge.  The merged
result is byte-identical to the serial kernel's — the backend
determinism property tests assert it.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable, Sequence

from repro.deps.ged import GED
from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate
from repro.reasoning.validation import Violation

from repro.streaming.delta import TaggedViolation, delta_violations

# ----------------------------------------------------------------------
# Worker side (top level: importable by the executor's pickler)
# ----------------------------------------------------------------------


class _WorkerStreamState:
    """Replica progress of one worker process, keyed by pool epoch.

    ``seq`` is the highest update sequence number applied to the
    worker's graph replica (0 = the broadcast snapshot itself), valid
    only for the pool *epoch* that broadcast the snapshot.  A module-
    global bare integer — the previous design — could survive into a
    recycled or forked worker process serving a **different** pool and
    make it "fast-forward" from a stale sequence number, silently
    skipping batches; comparing the task's epoch first guarantees a
    worker whose state predates the current broadcast starts from the
    snapshot (seq 0) instead.
    """

    __slots__ = ("epoch", "seq")

    def __init__(self) -> None:
        self.epoch: tuple | None = None
        self.seq = 0

    def enter_epoch(self, epoch: tuple) -> None:
        """Reset the replica cursor when the stream identity changes."""
        if self.epoch != epoch:
            self.epoch = epoch
            self.seq = 0


_WORKER_STREAM = _WorkerStreamState()


def _stream_delta_task(
    epoch: tuple,
    pending: tuple[tuple[int, GraphUpdate], ...],
    target_seq: int,
    shard: tuple[str, ...],
    collect: bool = False,
    trace=None,
):
    """Fast-forward the worker replica, then run the kernel on a shard.

    The rule set rides the pool broadcast (``EnginePool``'s ``extra``
    payload), not the task: Σ is constant for the executor's lifetime,
    so it is shipped once per worker instead of once per shard task.
    ``epoch`` identifies the broadcast this task's sequence numbers are
    relative to (see :class:`_WorkerStreamState`).  ``collect=True``
    (coordinator telemetry enabled) additionally returns ``(results,
    snapshot)`` with the shard's metrics for coordinator-side merging;
    ``trace`` (a :class:`~repro.telemetry.trace.TraceContext`) puts the
    shard's ``stream.shard`` span — and any slow-plan captures — into
    the coordinator's causal tree, shipped home inside the snapshot.
    """
    from repro.engine.pool import _worker_extra, _worker_graph
    from repro.indexing.maintenance import apply_update_indexed
    from repro.telemetry import metrics as _metrics
    from repro.telemetry import spans as _spans
    from repro.telemetry import trace as _trace

    state = _WORKER_STREAM
    state.enter_epoch(epoch)
    graph = _worker_graph()
    sigma: list[GED] = _worker_extra()
    for seq, update in pending:
        if seq > state.seq:
            apply_update_indexed(graph, update)
            state.seq = seq
    if state.seq != target_seq:
        raise RuntimeError(
            f"stream replica out of sync: worker at {state.seq}, "
            f"coordinator at {target_seq}"
        )
    if not collect:
        return delta_violations(graph, sigma, set(shard))
    with _metrics.collecting() as registry:
        with _trace.tracing(trace), _spans.span("stream.shard", nodes=len(shard)):
            results = delta_violations(graph, sigma, set(shard))
    return results, _spans.collected_snapshot(registry)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------

#: Monotone broadcast-epoch source; combined with the coordinator's pid
#: so epochs are unique even across forked coordinators.
_EPOCH_COUNTER = itertools.count(1)


def _new_epoch() -> tuple:
    return (os.getpid(), next(_EPOCH_COUNTER))


class EngineDeltaExecutor:
    """Shards the introduced-violation scan over a replicated warm pool.

    Construct against the *pre-stream* graph (the snapshot workers
    rebuild once); thereafter hand :meth:`refresh` every batch — in
    order, every batch, even ones with no live touched nodes — so the
    replicas never diverge from the coordinator.
    """

    def __init__(
        self,
        graph: Graph,
        sigma: Sequence[GED],
        workers: int | None = None,
        *,
        max_pending: int = 64,
    ):
        from repro.engine.pool import resolve_workers

        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.graph = graph
        self.sigma = list(sigma)
        self.workers = resolve_workers(workers)
        self.max_pending = max_pending
        self.seq = 0
        self.rebroadcasts = 0
        self._snapshot_seq = 0
        self._log: list[tuple[int, GraphUpdate]] = []
        self._pool = None
        self._broadcast()

    def _broadcast(self) -> None:
        """(Re)snapshot the coordinator graph into a fresh pool.

        Fresh worker processes start their replica counter at 0, so log
        entries are shipped with sequence numbers *relative to the
        snapshot* (``_snapshot_seq``) — after a re-broadcast the empty
        log and a relative target of 0 line up with the new workers.
        """
        from repro.engine.pool import EnginePool
        from repro.engine.snapshot import snapshot_graph

        if self._pool is not None:
            self._pool.close()
            self.rebroadcasts += 1
        self._pool = EnginePool(
            snapshot_graph(self.graph), self.workers, extra=list(self.sigma)
        )
        self._epoch = _new_epoch()
        self._snapshot_seq = self.seq
        self._log = []

    def refresh(self, update: GraphUpdate, touched: Iterable[str]) -> list[TaggedViolation]:
        """The introduced-violation scan for one (already applied) batch."""
        if self._pool is None:
            raise RuntimeError("executor is closed")
        self.seq += 1
        self._log.append((self.seq, update))
        if len(self._log) > self.max_pending:
            # Checkpoint: the fresh snapshot already contains every
            # logged batch, so the log starts over empty.
            self._broadcast()
        live = sorted(n for n in set(touched) if self.graph.has_node(n))
        if not live:
            return []
        shard_count = min(self.workers, len(live))
        shards: list[list[str]] = [[] for _ in range(shard_count)]
        for position, node_id in enumerate(live):
            shards[position % shard_count].append(node_id)
        pending = tuple(
            (seq - self._snapshot_seq, update) for seq, update in self._log
        )
        target_seq = self.seq - self._snapshot_seq
        from repro.telemetry import metrics as _metrics
        from repro.telemetry import spans as _spans
        from repro.telemetry import trace as _trace

        sink = _metrics.sink()
        collect = sink.enabled
        ctx = _trace.propagation_context() if collect else None
        results = self._pool.run_tasks(
            _stream_delta_task,
            [
                (self._epoch, pending, target_seq, tuple(shard), collect, ctx)
                for shard in shards
            ],
        )
        if collect:
            unwrapped = []
            for shard_result, snapshot in results:
                sink.merge(snapshot)
                _spans.absorb_remote(snapshot)
                unwrapped.append(shard_result)
            results = unwrapped
        # Merge: dedup across shards (a match meeting touched nodes in
        # two shards is found by both), deterministically ordered, and
        # re-anchored on the coordinator's own GED instances (workers
        # return pickle-copies).
        merged: dict[tuple[int, tuple[tuple[str, str], ...]], Violation] = {}
        for shard_result in results:
            for dep_index, violation in shard_result:
                key = (dep_index, violation.match)
                if key not in merged:
                    merged[key] = Violation(
                        self.sigma[dep_index], violation.match, violation.failed
                    )
        return [(key[0], merged[key]) for key in sorted(merged)]

    def close(self) -> None:
        """Release the engine pool (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "EngineDeltaExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineDeltaExecutor(workers={self.workers}, seq={self.seq}, "
            f"pending={len(self._log)}, rebroadcasts={self.rebroadcasts})"
        )


__all__ = ["EngineDeltaExecutor"]
