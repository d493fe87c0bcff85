"""The maintained violation set: exact deltas per update batch.

:class:`ViolationLedger` holds the *current* violation set of (G, Σ)
keyed by ``(dependency position in Σ, embedding)`` and, per
:class:`~repro.graph.update.GraphUpdate` batch, computes an exact delta:

* **retired / updated** — an inverted *embedding index* (node id → ledger
  keys whose match image contains it) selects exactly the entries whose
  embedding meets the batch's touched set; only those are re-checked
  (does the match still exist? does X still hold? which Y literals fail
  now?).  Entries whose embeddings avoid every touched element evaluated
  identically before the batch and are never looked at.
* **introduced** — the :mod:`~repro.streaming.delta` kernel enumerates
  every post-update violation whose match meets the touched set
  (pivot-pinned matching along the pattern's edges); keys not yet in
  the ledger are the introduced ones.  A key the kernel re-finds that the ledger already
  holds was itself re-checked by the retirement pass (its embedding
  meets the touched set), so the two passes agree.

The result is an invariant the property tests assert byte-for-byte:
after any stream of batches, :meth:`violations` equals a from-scratch
:func:`~repro.reasoning.validation.find_violations` on the final graph
(canonically ordered), with or without an index attached, on the serial
and engine-pooled delta paths alike.
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

from repro.streaming.delta import delta_violations

#: Ledger key: (position of the dependency in Σ, the match embedding).
LedgerKey = tuple[int, tuple[tuple[str, str], ...]]

_BACKENDS = ("serial", "engine", "fragment")


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
    rechecked: int = 0  # ledger entries re-evaluated
    touched: int = 0  # nodes touched by the batch
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
    backend:
        ``"serial"`` runs the introduced-violation kernel in-process;
        ``"engine"`` shards its pivots over a dedicated warm
        :mod:`repro.engine` pool whose workers replicate each batch
        instead of being re-broadcast (see
        :class:`repro.streaming.parallel.EngineDeltaExecutor`);
        ``"fragment"`` routes each batch to a fragmented mirror so the
        per-fragment replication log carries only its slice, and runs
        the introduced scan fragment-locally with cut escalation (see
        :class:`repro.streaming.fragments.FragmentDeltaRouter`).
    workers:
        pool size for the engine backend, fragment count for the
        fragment backend (``None`` = one per CPU).
    fragment_mode:
        partitioner for the fragment backend (``"hash"`` / ``"greedy"``).
    """

    def __init__(
        self,
        graph: Graph,
        sigma: Sequence[GED],
        *,
        backend: str = "serial",
        workers: int | None = None,
        fragment_mode: str = "hash",
    ):
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.graph = graph
        self.sigma = list(sigma)
        self.backend = backend
        self.workers = workers
        self.fragment_mode = fragment_mode
        self.seq = 0
        self._entries: dict[LedgerKey, Violation] = {}
        self._by_node: dict[str, set[LedgerKey]] = {}
        self._position = {id(ged): index for index, ged in enumerate(self.sigma)}
        self._executor = None  # created lazily on the first engine refresh
        self._router = None  # created lazily on the first fragment refresh

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
        touched = update.touched_nodes()
        if self.backend == "engine" and self._executor is None:
            from repro.streaming.parallel import EngineDeltaExecutor

            # The executor snapshots the *pre-batch* graph; every batch
            # from here on is replicated to its workers.
            self._executor = EngineDeltaExecutor(self.graph, self.sigma, self.workers)
        if self.backend == "fragment" and self._router is None:
            from repro.streaming.fragments import FragmentDeltaRouter

            # The router partitions the *pre-batch* graph; every batch
            # from here on is routed to its fragments as slices.
            self._router = FragmentDeltaRouter(
                self.graph, self.sigma, self.workers, self.fragment_mode
            )
        from repro.indexing.maintenance import apply_update_indexed

        apply_update_indexed(self.graph, update)  # validates the whole batch first
        self.seq += 1
        delta = StreamDelta(seq=self.seq, touched=len(touched))

        # -- retire / update: exactly the entries meeting the batch ----
        affected: set[LedgerKey] = set()
        for node_id in touched:
            affected |= self._by_node.get(node_id, set())
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

        # -- introduce: every post-batch violation meeting the batch ---
        with _spans.span("stream.introduce", backend=self.backend):
            if self._executor is not None:
                found = self._executor.refresh(update, touched)
            elif self._router is not None:
                found = self._router.refresh(self.graph, update, touched)
            else:
                found = delta_violations(self.graph, self.sigma, touched)
        # Canonical (dep position, embedding) order: the serial kernel
        # yields pin-enumeration order and the engine merge is sorted —
        # sorting here makes the emitted delta backend-independent.
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

    def close(self) -> None:
        """Shut down the engine executor's worker pool, if one exists
        (the fragment router is in-process and just dropped)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        self._router = None

    def __enter__(self) -> "ViolationLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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

    def transport_stats(self) -> dict[str, int]:
        """Routing/escalation totals over the ledger's lifetime.

        Non-zero only on the fragment backend (the router computes
        them); other backends report zeros so the CLI summary line has a
        stable shape.
        """
        if self._router is not None:
            return {
                "routed_ops": self._router.ops_routed,
                "full_ops": self._router.ops_full,
                "escalated_nodes": self._router.escalated_nodes,
            }
        return {"routed_ops": 0, "full_ops": 0, "escalated_nodes": 0}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def clean(self) -> bool:
        """True when the maintained graph currently satisfies Σ."""
        return not self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ViolationLedger(seq={self.seq}, violations={len(self._entries)}, "
            f"backend={self.backend!r})"
        )


__all__ = [
    "LedgerKey",
    "StreamDelta",
    "ViolationLedger",
    "canonical_report",
    "violation_to_dict",
]
