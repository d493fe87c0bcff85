"""repro.streaming — continuous violation maintenance over update streams.

Production graphs change continuously; re-validating from scratch after
every batch wastes the coNP-ish match enumeration on the unchanged part
of the graph.  This package turns validation into a **maintained,
delta-emitting service** — the engineering realization of the paper
conclusion's "practical special cases" direction for continuously
changing data:

* :mod:`repro.streaming.ledger` — :class:`ViolationLedger`, the current
  violation set keyed by (dependency, embedding) with an inverted
  embedding index; per :class:`~repro.graph.update.GraphUpdate` batch it
  emits an exact :class:`StreamDelta` (introduced / retired / updated)
  while staying byte-identical to a from-scratch
  :func:`~repro.reasoning.validation.find_violations` of the final graph;
* :mod:`repro.streaming.delta` — the kernel: Σ grouped by skeleton,
  each touched node pinned once per group and enumerated along the
  pattern's own edges (so the search stays in its neighborhood),
  quick-rejected through the index's 1-hop neighborhood signatures;
* :mod:`repro.streaming.parallel` — :class:`EngineDeltaExecutor`, which
  shards changed-node pivots over a warm :mod:`repro.engine` pool whose
  workers *replicate the update stream* (periodically re-snapshotted)
  instead of being re-broadcast per batch;
* :mod:`repro.streaming.fragments` — :class:`FragmentDeltaRouter`, which
  maintains a :class:`~repro.graph.fragments.FragmentedGraph` mirror and
  routes each batch to its owning fragments, so the per-fragment
  replication log carries only that fragment's slice and the introduced
  scan runs fragment-locally (ball-completeness, with cut escalation).

The surrounding plumbing lives where it layers naturally: deletion-aware
batches and up-front validation in :mod:`repro.graph.update`, the
durable JSONL update log with flat-array checkpoints in
:mod:`repro.graph.io`, deletion-aware index maintenance in
:mod:`repro.indexing.maintenance`, churn stream generators in
:mod:`repro.workloads.churn`, and the ``stream`` CLI subcommand which
replays a log and emits NDJSON deltas.

Typical use::

    from repro.streaming import ViolationLedger

    ledger = ViolationLedger(graph, sigma, backend="engine", workers=4)
    ledger.bootstrap()                   # full validation, once
    for update in stream:                # then work ∝ each batch's neighborhood
        delta = ledger.refresh(update)
        publish(delta.to_dict())
"""

from repro.streaming.delta import delta_violations
from repro.streaming.fragments import FragmentDeltaRouter
from repro.streaming.ledger import (
    StreamDelta,
    ViolationLedger,
    canonical_report,
    violation_to_dict,
)
from repro.streaming.parallel import EngineDeltaExecutor

__all__ = [
    "EngineDeltaExecutor",
    "FragmentDeltaRouter",
    "StreamDelta",
    "ViolationLedger",
    "canonical_report",
    "delta_violations",
    "violation_to_dict",
]
