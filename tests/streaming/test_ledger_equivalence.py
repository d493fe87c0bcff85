"""The ledger-equivalence property (ISSUE 3 acceptance).

After any seeded stream of update batches — including deletions — the
:class:`~repro.streaming.ViolationLedger` state must be byte-identical
(canonically ordered, NDJSON-serialized) to a from-scratch
``find_violations`` report on the final graph: with and without an
index attached, across the serial and engine delta backends.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.update import GraphUpdate
from repro.indexing import attach_index, get_index
from repro.reasoning import find_violations
from repro.streaming import (
    EngineDeltaExecutor,
    ViolationLedger,
    canonical_report,
    violation_to_dict,
)
from repro.workloads import churn_stream, social_churn_stream
from tests.streaming.shapes import STREAMS


def ndjson(violations):
    return "\n".join(json.dumps(violation_to_dict(v), sort_keys=True) for v in violations)


def assert_ledger_equals_full(ledger, graph, sigma):
    maintained = ndjson(ledger.violations())
    recomputed = ndjson(canonical_report(sigma, find_violations(graph, sigma)))
    assert maintained == recomputed


class TestSerialProperty:
    @STREAMS
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    def test_ledger_equals_full_revalidation(self, make_stream, seed, indexed):
        """The property, over random churn streams (random-graph
        workload) and the index toggle."""
        stream = make_stream(
            n_nodes=random.Random(seed).randint(20, 60),
            batches=8,
            batch_size=6,
            rng=seed,
        )
        graph = stream.base.copy()
        if indexed:
            attach_index(graph)
        ledger = ViolationLedger(graph, stream.sigma)
        ledger.bootstrap()
        for update in stream.updates:
            ledger.refresh(update)
            if indexed:
                assert get_index(graph) is not None, "index must stay synced"
        assert_ledger_equals_full(ledger, graph, stream.sigma)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_social_stream(self, seed):
        stream = social_churn_stream(n_rings=3, batches=6, batch_size=6, rng=seed)
        graph = stream.base.copy()
        attach_index(graph)
        ledger = ViolationLedger(graph, stream.sigma)
        ledger.bootstrap()
        for update in stream.updates:
            ledger.refresh(update)
        assert_ledger_equals_full(ledger, graph, stream.sigma)

    def test_deltas_compose_to_final_state(self):
        """introduced − retired, folded over the stream, reproduces the
        ledger (delta emission is lossless)."""
        stream = churn_stream(n_nodes=50, batches=10, rng=17)
        graph = stream.base.copy()
        ledger = ViolationLedger(graph, stream.sigma)
        state = {
            (v.ged, v.match): v for v in ledger.bootstrap()
        }
        for update in stream.updates:
            delta = ledger.refresh(update)
            for violation in delta.retired:
                del state[(violation.ged, violation.match)]
            for violation in delta.updated:
                assert (violation.ged, violation.match) in state
                state[(violation.ged, violation.match)] = violation
            for violation in delta.introduced:
                key = (violation.ged, violation.match)
                assert key not in state, "introduced key must be new"
                state[key] = violation
        assert set(state.values()) == set(ledger.violations())

    def test_introduced_order_is_canonical_not_pin_order(self):
        """Two violations introduced by one batch whose pin-enumeration
        order differs from canonical (dep, embedding) order: the delta
        must come back canonically sorted (backend-independent)."""
        from repro.deps import GED, ConstantLiteral
        from repro.graph import GraphBuilder
        from repro.patterns import Pattern

        graph = (
            GraphBuilder()
            .node("z", "L")
            .node("a", "L")
            .node("b", "L")
            .node("c", "L")
            .build()
        )
        rule = GED(
            Pattern({"x": "L", "y": "L"}, [("x", "r", "y")]),
            [],
            [ConstantLiteral("y", "ok", 1)],
        )
        ledger = ViolationLedger(graph, [rule])
        ledger.bootstrap()
        delta = ledger.refresh(GraphUpdate(edges=[("z", "r", "a"), ("b", "r", "c")]))
        matches = [v.match for v in delta.introduced]
        # Pin enumeration (sorted touched: a, b, c, z) finds (z, a)
        # before (b, c); canonical embedding order is the reverse.
        assert matches == [
            (("x", "b"), ("y", "c")),
            (("x", "z"), ("y", "a")),
        ]

    def test_empty_batch_is_a_noop_delta(self):
        stream = churn_stream(n_nodes=30, batches=1, rng=1)
        graph = stream.base.copy()
        ledger = ViolationLedger(graph, stream.sigma)
        ledger.bootstrap()
        delta = ledger.refresh(GraphUpdate())
        assert delta.is_empty()
        assert delta.rechecked == 0

    def test_bootstrap_keeps_no_validation_pools(self):
        """The bootstrap scan is the only one the ledger runs: the
        candidate pools it cached are dropped, so a long-lived ledger
        holds no pools of a graph version it has already moved past."""
        from repro.matching.view import peek_view

        stream = churn_stream(n_nodes=40, batches=2, rng=3)
        graph = stream.base.copy()
        ledger = ViolationLedger(graph, stream.sigma)
        ledger.bootstrap()
        assert peek_view(graph) is None
        ledger.refresh(stream.updates[0])
        assert peek_view(graph) is None
        assert_ledger_equals_full(ledger, graph, stream.sigma)


class TestEngineBackend:
    """The engine-pooled delta path (process workers: a few fixed seeds
    rather than a hypothesis sweep)."""

    @STREAMS
    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_engine_equals_full_revalidation(self, seed, indexed, make_stream):
        stream = make_stream(n_nodes=60, batches=8, rng=seed)
        graph = stream.base.copy()
        if indexed:
            attach_index(graph)
        with ViolationLedger(graph, stream.sigma, backend="engine", workers=2) as ledger:
            ledger.bootstrap()
            for update in stream.updates:
                ledger.refresh(update)
            assert_ledger_equals_full(ledger, graph, stream.sigma)

    def test_engine_deltas_match_serial_deltas(self):
        """Batch-by-batch determinism across backends, not just final
        state."""
        stream = churn_stream(n_nodes=60, batches=6, rng=7)
        serial_graph = stream.base.copy()
        engine_graph = stream.base.copy()
        serial = ViolationLedger(serial_graph, stream.sigma)
        serial.bootstrap()
        with ViolationLedger(
            engine_graph, stream.sigma, backend="engine", workers=2
        ) as engine:
            engine.bootstrap()
            for update in stream.updates:
                serial_delta = serial.refresh(update)
                engine_delta = engine.refresh(update)
                assert ndjson(serial_delta.introduced) == ndjson(engine_delta.introduced)
                assert ndjson(serial_delta.retired) == ndjson(engine_delta.retired)
                assert ndjson(serial_delta.updated) == ndjson(engine_delta.updated)

    def test_rebroadcast_checkpoint_path(self):
        """A tiny replication-log bound forces mid-stream re-broadcasts;
        correctness must be unaffected and the executor must record them."""
        stream = churn_stream(n_nodes=50, batches=8, rng=5)
        graph = stream.base.copy()
        ledger = ViolationLedger(graph, stream.sigma, backend="engine", workers=2)
        # Pre-build the executor with a tiny log bound, then stream.
        ledger._executor = EngineDeltaExecutor(
            graph, ledger.sigma, workers=2, max_pending=2
        )
        try:
            ledger.bootstrap()
            for update in stream.updates:
                ledger.refresh(update)
            assert ledger._executor.rebroadcasts >= 2
            assert_ledger_equals_full(ledger, graph, stream.sigma)
        finally:
            ledger.close()
