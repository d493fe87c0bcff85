"""Parallel scalable validation (Section 9's future-work direction).

The paper's conclusion calls for "parallel scalable algorithms for
reasoning about GEDs, to warrant speedup with the increase of
processors".  Validation (Theorem 6) is the reasoning task that runs
against *data* graphs, so it is the one worth parallelizing, and it is
embarrassingly parallel once the match space is sharded:

* :mod:`repro.parallel.partition` splits the candidate set of a pivot
  variable into k disjoint shards; the matches of a pattern are exactly
  the disjoint union over shards of matches with the pivot pinned into
  the shard, so sharded validation is **exact**, not approximate;
* :mod:`repro.parallel.validate` runs Σ on one of three backends —
  ``serial`` (one grouped Σ scan in-process, the deterministic
  reference), ``engine`` (shards on the warm persistent pool of
  :mod:`repro.engine`), or ``fragment`` (fragment-local shards over a
  :mod:`repro.graph.fragments` partition) — merges violations
  deterministically, and reports per-shard work counters so the
  benchmark can separate algorithmic balance from pool overhead.

Every backend returns the identical report (asserted by
``tests/parallel/test_backend_determinism.py``); the perf gate holds
the warm engine's speedups on the committed reference workload.
"""

from repro.parallel.partition import ShardPlan, plan_shards
from repro.parallel.validate import (
    ParallelValidationReport,
    ShardStats,
    parallel_find_violations,
    parallel_validates,
)

__all__ = [
    "ParallelValidationReport",
    "ShardPlan",
    "ShardStats",
    "parallel_find_violations",
    "parallel_validates",
    "plan_shards",
]
