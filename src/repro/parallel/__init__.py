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
* :mod:`repro.parallel.validate` runs Σ on one of two backends —
  ``serial`` (one grouped Σ scan in-process, the deterministic
  reference) or ``engine`` (shards on the warm persistent pool of
  :mod:`repro.engine`) — merges violations
  deterministically, and reports per-shard work counters so the
  benchmark can separate algorithmic balance from pool overhead.

Both backends return the identical report (asserted by
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
