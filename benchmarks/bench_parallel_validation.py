"""Parallel validation (the Section 9 future-work claim).

The paper's conclusion asks for "parallel scalable algorithms for
reasoning about GEDs, to warrant speedup with the increase of
processors".  Sharded validation (``repro.parallel``) partitions the
match space exactly, so the relevant shape claims are:

* per-shard maximum work (matches enumerated by the busiest worker)
  falls as worker count grows — the algorithmic speedup bound, which
  is machine- and GIL-independent;
* shard balance stays near 1.0 on uniform workloads (the round-robin
  pivot split is even);
* total matches across shards equals the unsharded count (no work
  inflation from sharding).

The shape claims are measured on the shards themselves:
:func:`~repro.parallel.partition.plan_shards` splits each dependency's
pivot pool and :func:`~repro.parallel.validate.run_shard` runs each
shard in-process — the (dependency, shard) units an ``engine`` worker
runs.

Wall time: the serial backend (one grouped Σ scan) is the reference;
the ``engine`` backend
(persistent worker pool, one-time snapshot broadcast, warm workers
holding graph + index + candidate caches — see :mod:`repro.engine`)
is benchmarked against it per worker count.  The CI perf gate
(``benchmarks/perf_gate.py``) turns the same comparison into a
regression check against ``benchmarks/baseline.json``.
"""

import pytest

from repro.engine import shutdown_pools
from repro.indexing import attach_index
from repro.parallel import parallel_find_violations, plan_shards
from repro.parallel.validate import run_shard
from repro.reasoning import find_violations
from repro.workloads import bounded_rule_set, validation_workload

WORKERS = [1, 2, 4, 8]
DATA_NODES = 400


@pytest.fixture(scope="module")
def workload():
    graph = validation_workload(DATA_NODES, rng=13)
    sigma = bounded_rule_set()
    yield graph, sigma
    shutdown_pools()


@pytest.fixture(scope="module")
def indexed_workload():
    graph = validation_workload(DATA_NODES, rng=13)
    attach_index(graph)
    sigma = bounded_rule_set()
    yield graph, sigma
    shutdown_pools()


def run_sharded(graph, sigma, workers):
    """Every (dependency, shard) unit for ``workers``, run in-process:
    the merged violations and one ``ShardStats`` per shard."""
    violations = []
    stats = []
    for ged in sigma:
        plan = plan_shards(ged.pattern, graph, workers)
        for index, shard in enumerate(plan.shards):
            shard_violations, shard_stats = run_shard(graph, ged, plan.pivot, shard, index)
            violations.extend(shard_violations)
            stats.append(shard_stats)
    return violations, stats


def test_serial_validation_wall_clock(benchmark, workload):
    """The serial backend's one grouped Σ scan: the reference the
    engine sweep below is timed against."""
    graph, sigma = workload

    report = benchmark(lambda: parallel_find_violations(graph, sigma, backend="serial"))
    benchmark.extra_info["total_matches"] = report.total_matches()
    benchmark.extra_info["violations"] = len(report.violations)


def test_shape_speedup_with_workers(workload):
    """The scalability claim, machine-independently: the busiest shard's
    match count drops roughly linearly in the worker count, while total
    work stays constant (exact sharding)."""
    graph, sigma = workload
    reference = len(find_violations(graph, sigma))

    totals = {}
    max_shards = {}
    for workers in WORKERS:
        violations, stats = run_sharded(graph, sigma, workers)
        assert len(violations) == reference
        totals[workers] = sum(s.matches for s in stats)
        max_shards[workers] = max((s.matches for s in stats), default=0)

    assert len(set(totals.values())) == 1, "sharding must not change total work"
    assert max_shards[8] * 4 <= max_shards[1] * 1.5, (
        f"busiest shard should shrink ~linearly: {max_shards}"
    )
    assert max_shards[4] < max_shards[1]


@pytest.mark.parametrize("workers", [2, 4])
def test_engine_backend_wall_clock(benchmark, indexed_workload, workers):
    """Warm engine-pool validation per worker count (the pool is built
    on the first round; subsequent rounds measure the warm path)."""
    graph, sigma = indexed_workload

    report = benchmark(
        lambda: parallel_find_violations(graph, sigma, workers=workers, backend="engine")
    )
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["backend"] = "engine"
    benchmark.extra_info["indexed"] = report.indexed
    benchmark.extra_info["violations"] = len(report.violations)


def test_engine_report_equals_serial(workload):
    """The engine backend's report is byte-identical to serial's."""
    graph, sigma = workload
    serial = parallel_find_violations(graph, sigma, workers=4, backend="serial")
    engine = parallel_find_violations(graph, sigma, workers=4, backend="engine")
    assert engine.violations == serial.violations
    assert engine.total_matches() == serial.total_matches()
