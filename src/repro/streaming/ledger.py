"""The maintained violation set: exact deltas per update batch.

:class:`ViolationLedger` holds the *current* violation set of (G, Σ)
keyed by ``(dependency position in Σ, embedding)`` and, per
:class:`~repro.graph.update.GraphUpdate` batch, computes an exact delta
from the batch's **footprint**
(:func:`~repro.streaming.delta.batch_footprint`): what the batch
changed of the attributes and edge labels Σ reads, typed by change
(Σ's read set, :func:`~repro.streaming.delta.sigma_reads`, is computed
once per ledger):

* **retired / updated** — an inverted *embedding index* (node id → ledger
  keys whose match image contains it) selects the **recheck set**: the
  entries that meet a deleted node or a node where a read attribute was
  written or deleted, plus the entries that meet *both* endpoints of a
  deleted edge whose label Σ reads.  Only those are re-checked (does
  the match still exist? does X still hold? which Y literals fail
  now?).  Every other entry — including one at a node that only gained
  an edge, or had an attribute written that no rule reads — evaluates
  exactly as before the batch and is never looked at.
* **introduced** — the :mod:`~repro.streaming.delta` kernel enumerates
  every post-update violation whose match meets a node pin (an added
  node, or a node with a read attribute changed) or maps a pattern edge
  onto an edge pin (an added edge whose label Σ reads): one executor
  run per Σ group and pinned pattern variable, and one per Σ group and
  pinned pattern edge.  Keys not yet in the ledger are the introduced
  ones.  A key the kernel re-finds that the ledger already holds is
  either unchanged (the kernel's pools admit a little more than the
  new matches) or was itself re-checked by the retirement pass (a read
  attribute changed at one of its nodes), so the two passes agree.

The :mod:`~repro.streaming.delta` module docstring gives the argument
that the footprint loses nothing.

The result is an invariant the property tests assert byte-for-byte:
after any stream of batches, :meth:`violations` equals a from-scratch
:func:`~repro.reasoning.validation.find_violations` on the final graph
(canonically ordered), with or without an index attached.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.deps.ged import GED
from repro.graph.graph import Graph
from repro.graph.update import GraphUpdate
from repro.matching.homomorphism import is_homomorphism
from repro.matching.view import release_view
from repro.reasoning.validation import Violation, evaluate_match, find_violations
from repro.telemetry import metrics as _metrics
from repro.telemetry import spans as _spans

from repro.streaming.delta import (
    Footprint,
    batch_footprint,
    delta_violations,
    sigma_reads,
)

#: Ledger key: (position of the dependency in Σ, the match embedding).
LedgerKey = tuple[int, tuple[tuple[str, str], ...]]


def violation_to_dict(violation: Violation) -> dict[str, Any]:
    """The NDJSON representation of one violation (docs/update-log.md)."""
    return {
        "rule": violation.ged.name,
        "match": [[variable, node] for variable, node in violation.match],
        "failed": [str(literal) for literal in violation.failed],
    }


def canonical_report(sigma: Sequence[GED], violations: Sequence[Violation]) -> list[Violation]:
    """Sort a violation list into the ledger's canonical order.

    Order: position of the dependency in Σ (by object identity — the
    violations must reference Σ's own GED instances, which is what
    ``find_violations`` produces), then embedding.  Applying this to a
    from-scratch report makes it directly comparable — byte-identical
    after serialization — to :meth:`ViolationLedger.violations`.
    """
    position = {id(ged): index for index, ged in enumerate(sigma)}
    return sorted(violations, key=lambda v: (position[id(v.ged)], v.match))


@dataclass
class StreamDelta:
    """What one batch did to the violation set."""

    seq: int
    introduced: list[Violation] = field(default_factory=list)
    retired: list[Violation] = field(default_factory=list)
    updated: list[Violation] = field(default_factory=list)  # same key, new failed set
    rechecked: int = 0  # ledger entries re-evaluated: the footprint's recheck set
    touched: int = 0  # nodes touched by the batch (``update.touched_nodes()``)
    wall_seconds: float = 0.0

    def is_empty(self) -> bool:
        """True when the batch changed no violation entry (the counters
        may still be non-zero: embeddings rechecked, nothing moved)."""
        return not (self.introduced or self.retired or self.updated)

    def to_dict(self) -> dict[str, Any]:
        """The NDJSON delta line (sans the "type" envelope the CLI adds)."""
        return {
            "seq": self.seq,
            "introduced": [violation_to_dict(v) for v in self.introduced],
            "retired": [violation_to_dict(v) for v in self.retired],
            "updated": [violation_to_dict(v) for v in self.updated],
            "rechecked": self.rechecked,
            "touched": self.touched,
            "wall_seconds": self.wall_seconds,
        }


class ViolationLedger:
    """Continuous violation maintenance over a stream of update batches.

    Parameters
    ----------
    graph:
        the live data graph; the ledger applies every batch to it (via
        the validating, index-maintaining
        :func:`~repro.indexing.maintenance.apply_update_indexed`).
    sigma:
        the dependency set; fixed for the ledger's lifetime.
    """

    def __init__(self, graph: Graph, sigma: Sequence[GED]):
        self.graph = graph
        self.sigma = list(sigma)
        self.seq = 0
        self._entries: dict[LedgerKey, Violation] = {}
        self._by_node: dict[str, set[LedgerKey]] = {}
        self._position = {id(ged): index for index, ged in enumerate(self.sigma)}
        self._reads = sigma_reads(self.sigma)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _insert(self, key: LedgerKey, violation: Violation) -> None:
        self._entries[key] = violation
        for _, node_id in key[1]:
            self._by_node.setdefault(node_id, set()).add(key)

    def _remove(self, key: LedgerKey) -> None:
        del self._entries[key]
        for _, node_id in key[1]:
            keys = self._by_node.get(node_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_node[node_id]

    def _recheck_set(self, footprint: Footprint) -> set[LedgerKey]:
        """The entries that meet a recheck node, or both endpoints of a
        recheck edge: the only ones whose status the batch can change."""
        affected: set[LedgerKey] = set()
        by_node = self._by_node
        for node_id in footprint.recheck_nodes:
            keys = by_node.get(node_id)
            if keys:
                affected |= keys
        for source, _, target in footprint.recheck_edges:
            at_source = by_node.get(source)
            at_target = by_node.get(target)
            if at_source and at_target:
                affected |= at_source & at_target
        return affected

    def _evaluate(self, key: LedgerKey) -> Violation | None:
        """Re-derive one entry's current status from the graph."""
        dep_index, match = key
        ged = self.sigma[dep_index]
        assignment = dict(match)
        if not all(self.graph.has_node(node_id) for node_id in assignment.values()):
            return None
        if not is_homomorphism(ged.pattern, self.graph, assignment):
            return None
        failed = evaluate_match(self.graph, ged, assignment)
        if failed is None:
            return None
        return Violation(ged, match, failed)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self) -> list[Violation]:
        """Seed the ledger with a full validation of the current graph."""
        self._entries.clear()
        self._by_node.clear()
        for violation in find_violations(self.graph, self.sigma):
            key = (self._position[id(violation.ged)], violation.match)
            self._insert(key, violation)
        # From here on the ledger follows the graph by deltas; no later
        # scan reads this version's pools.
        release_view(self.graph)
        return self.violations()

    def refresh(self, update: GraphUpdate) -> StreamDelta:
        """Apply one batch and return the exact violation delta."""
        started = time.perf_counter()
        footprint = batch_footprint(update, self._reads)
        from repro.indexing.maintenance import apply_update_indexed

        with _spans.span("stream.apply"):
            apply_update_indexed(self.graph, update)  # validates the whole batch first
        self.seq += 1
        delta = StreamDelta(seq=self.seq, touched=len(update.touched_nodes()))

        # -- retire / update: exactly the entries the batch may change --
        affected = self._recheck_set(footprint)
        delta.rechecked = len(affected)
        with _spans.span("stream.retire_check", affected=len(affected)):
            for key in sorted(affected):
                old = self._entries[key]
                current = self._evaluate(key)
                if current is None:
                    self._remove(key)
                    delta.retired.append(old)
                elif current.failed != old.failed:
                    self._entries[key] = current
                    delta.updated.append(current)

        # -- introduce: every post-batch violation meeting the footprint --
        with _spans.span(
            "stream.introduce",
            pins=len(footprint.node_pins),
            edge_pins=len(footprint.edge_pins),
        ):
            found = delta_violations(
                self.graph, self.sigma, footprint.node_pins, footprint.edge_pins
            )
        # Canonical (dep position, embedding) order: the kernel yields
        # its runs' enumeration order (group, then pinned variable or
        # edge, then executor order); sorting here makes the emitted
        # delta independent of it.
        for dep_index, violation in sorted(found, key=lambda f: (f[0], f[1].match)):
            key = (dep_index, violation.match)
            if key not in self._entries:
                self._insert(key, violation)
                delta.introduced.append(violation)

        delta.wall_seconds = time.perf_counter() - started
        sink = _metrics.sink()
        if sink.enabled:
            sink.incr("stream.batches")
            sink.incr("stream.introduced", len(delta.introduced))
            sink.incr("stream.retired", len(delta.retired))
            sink.incr("stream.updated", len(delta.updated))
            sink.incr("stream.rechecked", delta.rechecked)
            sink.incr("stream.touched", delta.touched)
            sink.observe(
                "stream.batch_seconds", delta.wall_seconds, _metrics.SECONDS_BOUNDS
            )
        return delta

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def violations(self) -> list[Violation]:
        """The current violation set, canonically ordered (Σ position,
        then embedding) — comparable byte-for-byte to a canonically
        ordered from-scratch report."""
        return [self._entries[key] for key in sorted(self._entries)]

    def entries(self) -> list[tuple[int, Violation]]:
        """The current violation set as ``(Σ position, violation)``
        pairs in canonical order — what consumers that need the
        dependency's position (the serve layer's filters) iterate."""
        return [(key[0], self._entries[key]) for key in sorted(self._entries)]

    def position_of(self, ged: GED) -> int:
        """The Σ position of one of this ledger's own GED instances
        (violations reference Σ's instances by identity)."""
        return self._position[id(ged)]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def clean(self) -> bool:
        """True when the maintained graph currently satisfies Σ."""
        return not self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ViolationLedger(seq={self.seq}, violations={len(self._entries)})"


__all__ = [
    "LedgerKey",
    "StreamDelta",
    "ViolationLedger",
    "canonical_report",
    "violation_to_dict",
]
