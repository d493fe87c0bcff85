"""The observability contract: telemetry never perturbs results.

Every validation backend — and the streaming ledger — must produce a
byte-identical violation stream with telemetry enabled and disabled,
with and without an attached index.  Telemetry counts the work; it must
never change it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.engine import shutdown_pools
from repro.graph.generators import random_labeled_graph
from repro.graph.update import GraphUpdate
from repro.indexing import attach_index, detach_index
from repro.parallel import parallel_find_violations
from repro.streaming import ViolationLedger
from repro.workloads import bounded_rule_set, validation_workload

BACKENDS = ("serial", "engine")


@pytest.fixture(autouse=True)
def _clean_telemetry_and_pools():
    telemetry.disable()
    telemetry.reset()
    telemetry.clear_spans()
    yield
    shutdown_pools()
    telemetry.disable()
    telemetry.reset()
    telemetry.clear_spans()


def _run(graph, sigma, backend, enabled):
    if enabled:
        telemetry.reset()
        telemetry.enable()
    try:
        return parallel_find_violations(graph, sigma, workers=3, backend=backend)
    finally:
        telemetry.disable()


class TestValidationBackends:
    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_enabled_equals_disabled(self, backend, indexed):
        graph = validation_workload(120, rng=13)
        if indexed:
            attach_index(graph)
        else:
            detach_index(graph)
        sigma = bounded_rule_set()
        off = _run(graph, sigma, backend, enabled=False)
        on = _run(graph, sigma, backend, enabled=True)
        assert on.violations == off.violations, f"{backend} perturbed by telemetry"
        # and the profiled run did actually count the matching work
        assert telemetry.snapshot()["counters"].get("plan.frames_expanded", 0) > 0


class TestStreamingLedger:
    def _stream(self, enabled):
        graph = validation_workload(60, rng=7)
        detach_index(graph)
        sigma = bounded_rule_set()
        update = GraphUpdate(
            nodes=(("telem_new", "user", (("score", 1),)),),
            edges=(("telem_new", "follows", sorted(graph.node_ids)[0]),),
        )
        if enabled:
            telemetry.reset()
            telemetry.enable()
        try:
            ledger = ViolationLedger(graph, sigma)
            ledger.bootstrap()
            delta = ledger.refresh(update)
            return delta.to_dict(), [str(v) for v in ledger.violations()]
        finally:
            telemetry.disable()

    def test_ledger_delta_identical_on_off(self):
        delta_off, final_off = self._stream(enabled=False)
        delta_on, final_on = self._stream(enabled=True)
        # wall clock differs run to run; everything else must not
        delta_off.pop("wall_seconds")
        delta_on.pop("wall_seconds")
        assert delta_on == delta_off
        assert final_on == final_off
        counters = telemetry.snapshot()["counters"]
        assert counters.get("stream.batches") == 1


class TestPropertyByteIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        indexed=st.booleans(),
        backend=st.sampled_from(BACKENDS),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_graphs(self, seed, indexed, backend):
        graph = random_labeled_graph(
            10,
            0.3,
            node_labels=["user", "item", "shop"],
            edge_labels=["buys", "sells"],
            attribute_names=["score", "region"],
            attribute_values=[1, 2],
            rng=seed,
        )
        if indexed:
            attach_index(graph)
        sigma = bounded_rule_set()
        off = _run(graph, sigma, backend, enabled=False)
        on = _run(graph, sigma, backend, enabled=True)
        assert on.violations == off.violations
        shutdown_pools()
