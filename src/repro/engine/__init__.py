"""The persistent execution engine for heavy workloads.

The paper's parallel story (Section 9: "parallel scalable algorithms
... to warrant speedup with the increase of processors") presumes
workers that hold the data: ship the graph to each worker **once**,
then stream small work units to warm workers.  The original process backend
instead re-pickled the whole object graph per (dependency, shard) task
and its workers ran unindexed — so real CPU parallelism lost to serial
on every workload.  This package is the fix, shared by validation,
discovery, and repair suggestion:

* :mod:`repro.engine.snapshot` — the broadcast format: the graph as
  flat interned-pool arrays (cheap to pickle), plus the coordinator's
  index-attachment decision; workers rebuild graph and index once;
* :mod:`repro.engine.pool` — pool lifecycle: a
  ``ProcessPoolExecutor`` whose initializer consumes the snapshot, a
  weak graph-keyed registry that keeps pools warm across calls, and
  invalidation keyed on the graph's mutation version;
* :mod:`repro.engine.scheduler` — the work queue: exact
  (dependency, shard) units referenced by ids, cost-estimated from the
  index's degree counters, ordered largest-first (LPT).

Consumers: ``parallel_find_violations``'s ``engine`` backend keeps
the pool warm; :func:`repro.discovery.patterns.enumerate_candidate_patterns`
and :func:`repro.repair.suggest.suggest_repairs_batch` take a
``workers`` argument; ``repro.cli engine`` exposes the runtime
standalone.  Serial paths everywhere remain the deterministic
reference — every engine result is byte-identical to them.
"""

from repro.engine.pool import (
    EnginePool,
    get_pool,
    pool_for,
    release_pool,
    resolve_workers,
    shutdown_pools,
)
from repro.engine.scheduler import TaskUnit, estimate_shard_cost, plan_tasks
from repro.engine.snapshot import GraphSnapshot, snapshot_graph

__all__ = [
    "EnginePool",
    "GraphSnapshot",
    "TaskUnit",
    "estimate_shard_cost",
    "get_pool",
    "plan_tasks",
    "pool_for",
    "release_pool",
    "resolve_workers",
    "shutdown_pools",
    "snapshot_graph",
]
