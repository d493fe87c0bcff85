"""Streaming benchmarks: ledger maintenance vs full revalidation.

The streaming claim (ISSUE 3): maintaining the violation set with
:class:`repro.streaming.ViolationLedger` — retirement re-checks confined
to ledger entries meeting the batch, introduction scans confined to a
pattern-radius ball around the batch's touched nodes — beats re-running
:func:`~repro.reasoning.validation.find_violations` from scratch after
every batch by **at least 5x per batch** on the churn workload, while
staying byte-identical to it.

:func:`run_streaming_bench` is the shared measurement kernel: the
pytest entry points below assert the correctness half and emit wall
clocks, and the CI perf gate (``benchmarks/perf_gate.py``) runs the
same kernel against the thresholds committed in
``benchmarks/baseline.json`` and writes ``BENCH_streaming.json``.

Each batch record also carries the ledger's work: ``kernel_runs``, how
many times its delta kernel ran the plan executor, and
``kernel_matches``, how many matches those runs yielded, both counted by
wrapping ``repro.streaming.delta.execute_over_pools`` (the name the
kernel calls it by, and the one ``perfbench/traced_serve.py`` wraps);
and ``rechecked``, the ledger entries its retire pass re-evaluated.
The ledger pins the kernel on each batch's **footprint** — added nodes,
nodes where an attribute Σ reads changed, and added edges whose label
Σ reads, each edge pinned at the pattern edges it can map to — and
rechecks only entries that meet a deleted node, an attribute-changed
node, or both endpoints of a deleted edge
(:func:`repro.streaming.delta.batch_footprint`).  The counts are
deterministic for a given stream, so they show a change in the
kernel's work beside the noisy wall times.  No gate reads them, but
:func:`test_footprint_kernel_enumerates_less_than_touched_pins` holds
the footprint to its claim without a clock: per batch the ledger's
kernel yields no more matches than the same kernel pinned on every
touched node (:func:`touched_pin_matches`), and fewer over the stream.

The payload's ``meta`` also carries ``checkpoint_wall_s`` and
``checkpoint_bytes``: the time and size of one update-log checkpoint
(:meth:`repro.graph.io.UpdateLogWriter.checkpoint`) of the stream's
final graph, so ``tools/bench_history.py diff`` follows the checkpoint
encoder across changes.  Informational too: no gate reads them.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_streaming.py -q
"""

from __future__ import annotations

import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import repro.streaming.delta as delta_kernel  # noqa: E402
from repro.graph.io import UpdateLogWriter  # noqa: E402
from repro.indexing import attach_index  # noqa: E402
from repro.indexing.maintenance import apply_update_indexed  # noqa: E402
from repro.reasoning import find_violations  # noqa: E402
from repro.streaming import (  # noqa: E402
    ViolationLedger,
    canonical_report,
    delta_violations,
    violation_to_dict,
)
from repro.workloads import churn_stream  # noqa: E402

DEFAULT_CONFIG = {
    "nodes": 400,
    "batches": 12,
    "batch_size": 8,
    "delete_fraction": 0.35,
    "rng": 13,
    "indexed": True,
}


def measure_checkpoint(graph) -> tuple[float, int]:
    """Wall seconds and bytes of one log checkpoint of ``graph``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "checkpoint.jsonl"
        with UpdateLogWriter(path) as writer:
            started = time.perf_counter()
            writer.checkpoint(graph)
            seconds = time.perf_counter() - started
        return seconds, path.stat().st_size


@contextmanager
def counting_kernel_work():
    """Count the delta kernel's executor runs and the matches they yield
    while the block runs; the yielded dict holds the running totals
    (``runs``, ``matches``)."""
    work = {"runs": 0, "matches": 0}
    run = delta_kernel.execute_over_pools

    def yielded(matches):
        for match in matches:
            work["matches"] += 1
            yield match

    def counted(*args, **kwargs):
        work["runs"] += 1
        return yielded(run(*args, **kwargs))

    delta_kernel.execute_over_pools = counted
    try:
        yield work
    finally:
        delta_kernel.execute_over_pools = run


def touched_pin_matches(
    nodes: int = 400,
    batches: int = 12,
    batch_size: int = 8,
    delete_fraction: float = 0.35,
    rng: int = 13,
    indexed: bool = True,
) -> list[int]:
    """Per batch of :func:`run_streaming_bench`'s stream, the matches
    ``delta_violations(graph, sigma, update.touched_nodes())`` yields on
    the post-batch graph: the kernel pinned on every touched node, the
    reference the ledger's footprint-pinned kernel must not exceed."""
    stream = churn_stream(
        n_nodes=nodes,
        batches=batches,
        batch_size=batch_size,
        delete_fraction=delete_fraction,
        rng=rng,
    )
    graph = stream.base.copy()
    if indexed:
        attach_index(graph)
    counts = []
    for update in stream.updates:
        apply_update_indexed(graph, update)
        with counting_kernel_work() as work:
            delta_violations(graph, stream.sigma, update.touched_nodes())
        counts.append(work["matches"])
    return counts


def run_streaming_bench(
    nodes: int = 400,
    batches: int = 12,
    batch_size: int = 8,
    delete_fraction: float = 0.35,
    rng: int = 13,
    indexed: bool = True,
) -> dict:
    """Replay one churn stream twice — ledger-maintained vs full
    revalidation per batch — and return records plus the speedup.

    Both paths see identical graphs and the same index policy; the full
    path pays ``find_violations`` on the whole graph after every batch,
    the ledger path pays only its delta.  Reports are asserted equal
    per batch (counts) and byte-identical at the end.
    """
    stream = churn_stream(
        n_nodes=nodes,
        batches=batches,
        batch_size=batch_size,
        delete_fraction=delete_fraction,
        rng=rng,
    )
    ledger_graph = stream.base.copy()
    full_graph = stream.base.copy()
    if indexed:
        attach_index(ledger_graph)
        attach_index(full_graph)

    ledger = ViolationLedger(ledger_graph, stream.sigma)
    started = time.perf_counter()
    ledger.bootstrap()
    bootstrap_seconds = time.perf_counter() - started

    records: list[dict] = []
    ledger_total = 0.0
    full_total = 0.0
    for batch_index, update in enumerate(stream.updates, start=1):
        with counting_kernel_work() as work:
            started = time.perf_counter()
            delta = ledger.refresh(update)
            ledger_seconds = time.perf_counter() - started

        started = time.perf_counter()
        apply_update_indexed(full_graph, update)
        full_report = find_violations(full_graph, stream.sigma)
        full_seconds = time.perf_counter() - started

        assert len(ledger.violations()) == len(full_report), (
            f"batch {batch_index}: ledger {len(ledger.violations())} != "
            f"full {len(full_report)}"
        )
        ledger_total += ledger_seconds
        full_total += full_seconds
        records.append(
            {
                "batch": batch_index,
                "operations": update.size(),
                "touched": delta.touched,
                "introduced": len(delta.introduced),
                "retired": len(delta.retired),
                "updated": len(delta.updated),
                "rechecked": delta.rechecked,
                "kernel_runs": work["runs"],
                "kernel_matches": work["matches"],
                "ledger_wall_s": ledger_seconds,
                "full_wall_s": full_seconds,
                "violations": len(full_report),
            }
        )

    ledger_bytes = [violation_to_dict(v) for v in ledger.violations()]
    full_bytes = [
        violation_to_dict(v)
        for v in canonical_report(stream.sigma, find_violations(full_graph, stream.sigma))
    ]
    assert ledger_bytes == full_bytes, "ledger diverged from full revalidation"
    checkpoint_seconds, checkpoint_bytes = measure_checkpoint(ledger_graph)

    return {
        "config": {
            "nodes": nodes,
            "batches": batches,
            "batch_size": batch_size,
            "delete_fraction": delete_fraction,
            "rng": rng,
            "indexed": indexed,
        },
        "records": records,
        "bootstrap_wall_s": bootstrap_seconds,
        "ledger_wall_s": ledger_total,
        "full_wall_s": full_total,
        "speedup_per_batch": (full_total / ledger_total) if ledger_total else float("inf"),
        "final_violations": len(ledger_bytes),
        "checkpoint_wall_s": checkpoint_seconds,
        "checkpoint_bytes": checkpoint_bytes,
    }


# ----------------------------------------------------------------------
# pytest entry points (run in CI's test job with --benchmark-disable)
# ----------------------------------------------------------------------


def test_ledger_matches_full_revalidation_per_batch():
    """The correctness half of the streaming claim, on the gate's
    workload shape (smaller size so the assertion-only run stays
    quick); byte-identity is asserted inside the kernel."""
    result = run_streaming_bench(nodes=150, batches=8, rng=13)
    assert result["final_violations"] >= 0
    assert len(result["records"]) == 8


def test_footprint_kernel_enumerates_less_than_touched_pins():
    """The footprint's work claim, with no clock: on the fixed seeded
    stream the ledger's kernel yields no more matches per batch than
    the kernel pinned on every touched node, and fewer over the stream
    (a kernel back on touched-node pins fails the second assertion)."""
    config = dict(nodes=150, batches=8, rng=13)
    records = run_streaming_bench(**config)["records"]
    reference = touched_pin_matches(**config)
    matches = [record["kernel_matches"] for record in records]
    assert all(ours <= theirs for ours, theirs in zip(matches, reference)), (
        matches,
        reference,
    )
    assert sum(matches) < sum(reference), (matches, reference)


def test_ledger_beats_full_revalidation(benchmark=None):
    """The performance half: ledger maintenance is faster per batch than
    full revalidation on the committed workload (the CI gate enforces
    the 5x floor; this in-suite check uses a conservative 2x so shared
    test runners stay green)."""
    result = run_streaming_bench(**DEFAULT_CONFIG)
    assert result["speedup_per_batch"] > 2.0, (
        f"ledger maintenance only {result['speedup_per_batch']:.1f}x faster "
        f"than full revalidation"
    )
    _emit(result)


def _emit(result: dict) -> None:
    from benchmarks._emit import emit_bench

    emit_bench(
        "streaming",
        result["records"],
        meta={
            "config": result["config"],
            "bootstrap_wall_s": result["bootstrap_wall_s"],
            "ledger_wall_s": result["ledger_wall_s"],
            "full_wall_s": result["full_wall_s"],
            "speedup_per_batch": result["speedup_per_batch"],
            "final_violations": result["final_violations"],
            "checkpoint_wall_s": result["checkpoint_wall_s"],
            "checkpoint_bytes": result["checkpoint_bytes"],
        },
    )


if __name__ == "__main__":
    import json

    outcome = run_streaming_bench(**DEFAULT_CONFIG)
    _emit(outcome)
    print(json.dumps({k: v for k, v in outcome.items() if k != "records"}, indent=2))
