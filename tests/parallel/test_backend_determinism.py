"""Cross-backend determinism: every backend, the same ordered report.

The satellite property of the parallel layer — serial, thread, process
(engine-routed, one-shot), and engine (warm pool) backends return
*identical, identically ordered* violation lists, with and without an
attached index — on both workload families.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import paper
from repro.engine import shutdown_pools
from repro.graph.generators import random_labeled_graph
from repro.indexing import attach_index, detach_index
from repro.parallel import parallel_find_violations
from repro.reasoning import find_violations
from repro.workloads import (
    bounded_rule_set,
    overlapping_rule_set,
    overlapping_workload,
    synthetic_social_network,
    validation_workload,
)

BACKENDS = ("serial", "thread", "process", "engine", "fragment")


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    shutdown_pools()


def assert_backends_agree(graph, sigma, workers=3):
    reference = sorted(
        find_violations(graph, sigma),
        key=lambda v: (v.ged.name or "", str(v.ged), v.match),
    )
    for backend in BACKENDS:
        report = parallel_find_violations(graph, sigma, workers=workers, backend=backend)
        assert report.violations == reference, f"{backend} diverged"


class TestRandomGraphWorkload:
    @pytest.mark.parametrize("seed", [3, 13, 99])
    def test_all_backends_identical_without_index(self, seed):
        graph = validation_workload(120, rng=seed)
        detach_index(graph)
        assert_backends_agree(graph, bounded_rule_set())

    @pytest.mark.parametrize("seed", [3, 13])
    def test_all_backends_identical_with_index(self, seed):
        graph = validation_workload(120, rng=seed)
        attach_index(graph)
        assert_backends_agree(graph, bounded_rule_set())


class TestSocialWorkload:
    def social(self, rng):
        graph, _ = synthetic_social_network(
            n_rings=2, n_benign_pairs=2, n_background_accounts=6, k=2, rng=rng
        )
        return graph

    @pytest.mark.parametrize("indexed", [False, True])
    def test_all_backends_identical(self, indexed):
        graph = self.social(rng=3)
        sigma = [paper.phi5(k=2, keyword="peculiar")]
        if indexed:
            attach_index(graph)
        else:
            detach_index(graph)
        assert_backends_agree(graph, sigma)


class TestOverlappingSigma:
    """Literal variants over shared skeletons: the grouped full scan
    (and the serial backend's grouped batch) against every backend."""

    @pytest.mark.parametrize("indexed", [False, True])
    def test_all_backends_identical(self, indexed):
        graph = overlapping_workload(120, rng=3)
        sigma = overlapping_rule_set(6)
        if indexed:
            attach_index(graph)
        else:
            detach_index(graph)
        assert find_violations(graph, sigma)  # violations to compare
        assert_backends_agree(graph, sigma)


class TestPropertyDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        indexed=st.booleans(),
        workers=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=8, deadline=None)
    def test_engine_equals_serial_on_random_graphs(self, seed, indexed, workers):
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
        serial = parallel_find_violations(graph, sigma, workers=workers, backend="serial")
        threaded = parallel_find_violations(graph, sigma, workers=workers, backend="thread")
        engine = parallel_find_violations(graph, sigma, workers=workers, backend="engine")
        assert serial.violations == threaded.violations == engine.violations
        shutdown_pools()


class TestWorkersValidation:
    @pytest.mark.parametrize("bad", [0, -1, -4])
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_zero_and_negative_workers_rejected(self, bad, backend):
        graph = validation_workload(30, rng=1)
        with pytest.raises(ValueError, match="positive integer"):
            parallel_find_violations(graph, bounded_rule_set(), workers=bad, backend=backend)

    def test_default_workers_capped_at_cpu_count(self):
        import os

        graph = validation_workload(30, rng=1)
        report = parallel_find_violations(graph, bounded_rule_set())
        assert 1 <= report.workers <= max(1, os.cpu_count() or 1)
