"""Fragment-routed streaming: the ledger's ``fragment`` backend stays
byte-identical to serial while each fragment's replication log carries
only its slice."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.fragments import PARTITION_MODES
from repro.indexing import attach_index
from repro.reasoning import find_violations
from repro.streaming import FragmentDeltaRouter, ViolationLedger, canonical_report
from repro.workloads import churn_stream, social_churn_stream
from tests.streaming.shapes import STREAMS


def run_ledger(stream, backend, indexed=False, **kwargs):
    graph = stream.base.copy()
    if indexed:
        attach_index(graph)
    with ViolationLedger(graph, stream.sigma, backend=backend, **kwargs) as ledger:
        ledger.bootstrap()
        deltas = []
        for update in stream.updates:
            delta = ledger.refresh(update)
            payload = delta.to_dict()
            payload.pop("wall_seconds")
            deltas.append(payload)
        final = ledger.violations()
        fresh = canonical_report(stream.sigma, find_violations(graph, stream.sigma))
        assert final == fresh  # the ledger invariant, per backend
        return deltas, final, ledger


class TestLedgerFragmentBackend:
    @STREAMS
    @pytest.mark.parametrize("mode", PARTITION_MODES)
    @pytest.mark.parametrize("indexed", [False, True])
    def test_random_churn_byte_identical(self, mode, indexed, make_stream):
        make = lambda: make_stream(n_nodes=100, batches=10, batch_size=8, rng=11)
        serial_deltas, serial_final, _ = run_ledger(make(), "serial", indexed)
        fragment_deltas, fragment_final, _ = run_ledger(
            make(), "fragment", indexed, workers=3, fragment_mode=mode
        )
        assert fragment_deltas == serial_deltas
        assert [str(v) for v in fragment_final] == [str(v) for v in serial_final]

    @pytest.mark.parametrize("mode", PARTITION_MODES)
    def test_social_churn_byte_identical(self, mode):
        """The social rules include a radius-4 pattern — deep balls
        cross cuts constantly, so this drives the escalation path."""
        make = lambda: social_churn_stream(n_rings=3, batches=8, batch_size=6, rng=4)
        serial_deltas, _, _ = run_ledger(make(), "serial")
        fragment_deltas, _, ledger = run_ledger(
            make(), "fragment", workers=3, fragment_mode=mode
        )
        assert fragment_deltas == serial_deltas

    @given(seed=st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=6, deadline=None)
    def test_property_equivalence(self, seed):
        make = lambda: churn_stream(n_nodes=50, batches=6, batch_size=6, rng=seed)
        serial_deltas, _, _ = run_ledger(make(), "serial")
        fragment_deltas, _, _ = run_ledger(
            make(), "fragment", workers=2, fragment_mode="greedy"
        )
        assert fragment_deltas == serial_deltas

    def test_bad_backend_rejected(self):
        stream = churn_stream(n_nodes=20, batches=1, rng=1)
        with pytest.raises(ValueError, match="backend"):
            ViolationLedger(stream.base.copy(), stream.sigma, backend="sharded")


class TestRouterAccounting:
    def test_routed_log_smaller_than_full_replication(self):
        stream = churn_stream(n_nodes=120, batches=10, batch_size=8, rng=13)
        with ViolationLedger(
            stream.base.copy(),
            stream.sigma,
            backend="fragment",
            workers=4,
            fragment_mode="greedy",
        ) as ledger:
            ledger.bootstrap()
            for update in stream.updates:
                ledger.refresh(update)
            router = ledger._router
            assert router is not None
            assert router.ops_full == 4 * sum(u.size() for u in stream.updates)
            # The whole point: per-fragment slices ship less than k-way
            # full replication (coherence traffic included).
            assert router.ops_routed < router.ops_full

    def test_router_mirror_tracks_the_stream(self):
        stream = churn_stream(n_nodes=60, batches=6, batch_size=6, rng=3)
        graph = stream.base.copy()
        router = FragmentDeltaRouter(graph, stream.sigma, fragments=3, mode="hash")
        from repro.reasoning.incremental import apply_update

        for update in stream.updates:
            apply_update(graph, update)
            router.refresh(graph, update, update.touched_nodes())
        assert router.mirror.to_graph() == graph
