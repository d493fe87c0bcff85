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
* :mod:`repro.streaming.delta` — the kernel: each batch typed by what
  it changed of what Σ reads into a footprint (added nodes, nodes with
  a read attribute changed, added edges of a read label), Σ grouped by
  skeleton, each pin set run once per group and enumerated along the
  pattern's own edges (so the search stays in its neighborhood),
  quick-rejected through the index's 1-hop neighborhood signatures.

The surrounding plumbing lives where it layers naturally: deletion-aware
batches and up-front validation in :mod:`repro.graph.update`, the
durable JSONL update log with flat-array checkpoints in
:mod:`repro.graph.io`, deletion-aware index maintenance in
:mod:`repro.indexing.maintenance`, churn stream generators in
:mod:`repro.workloads.churn`, and the ``stream`` CLI subcommand which
replays a log and emits NDJSON deltas.

Typical use::

    from repro.streaming import ViolationLedger

    ledger = ViolationLedger(graph, sigma)
    ledger.bootstrap()                   # full validation, once
    for update in stream:                # then work ∝ each batch's neighborhood
        delta = ledger.refresh(update)
        publish(delta.to_dict())
"""

from repro.streaming.delta import delta_violations
from repro.streaming.ledger import (
    StreamDelta,
    ViolationLedger,
    canonical_report,
    violation_to_dict,
)

__all__ = [
    "StreamDelta",
    "ViolationLedger",
    "canonical_report",
    "delta_violations",
    "violation_to_dict",
]
