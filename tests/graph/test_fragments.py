"""The fragmented graph core: partition invariants, facade equivalence,
and update-routing coherence.

The satellite property of the fragment layer — a
:class:`~repro.graph.fragments.FragmentedGraph` answers the whole-graph
``Graph`` read API byte-identically to the monolithic graph, across
partitioner modes, fragment counts, and churn streams, with the
structural invariants (interior partition, border = exterior
neighborhood, local graph = induced subgraph) holding at every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import Graph
from repro.graph.fragments import (
    PARTITION_MODES,
    FragmentedGraph,
    fragment_stats,
    get_fragments,
    partition_graph,
)
from repro.graph.generators import random_labeled_graph
from repro.graph.update import GraphUpdate
from repro.indexing import attach_index, get_index
from repro.indexing.maintenance import apply_update_indexed
from repro.workloads import (
    churn_stream,
    clustered_workload,
    social_churn_stream,
    validation_workload,
)


def small_graph(seed: int, n: int = 24) -> Graph:
    return random_labeled_graph(
        n,
        0.25,
        node_labels=["user", "item", "shop"],
        edge_labels=["buys", "sells"],
        attribute_names=["score", "region"],
        attribute_values=[1, 2],
        rng=seed,
    )


def assert_facade_equivalent(fragmented: FragmentedGraph, reference: Graph) -> None:
    """Every read-API answer must match the monolithic graph."""
    assert fragmented.num_nodes == reference.num_nodes
    assert fragmented.num_edges == reference.num_edges
    assert fragmented.size() == reference.size()
    assert sorted(fragmented.node_ids) == sorted(reference.node_ids)
    assert fragmented.edges == reference.edges
    assert fragmented.labels == reference.labels
    assert fragmented.edge_labels == reference.edge_labels
    for label in reference.labels:
        assert fragmented.nodes_with_label(label) == reference.nodes_with_label(label)
    for node_id in reference.node_ids:
        expected = reference.node(node_id)
        got = fragmented.node(node_id)
        assert got.label == expected.label
        assert dict(got.attributes) == dict(expected.attributes)
        assert fragmented.successors(node_id) == reference.successors(node_id)
        assert fragmented.predecessors(node_id) == reference.predecessors(node_id)
        assert fragmented.out_degree(node_id) == reference.out_degree(node_id)
        assert fragmented.in_degree(node_id) == reference.in_degree(node_id)
        assert set(fragmented.out_edges(node_id)) == set(reference.out_edges(node_id))
        assert set(fragmented.in_edges(node_id)) == set(reference.in_edges(node_id))
        for label in reference.edge_labels:
            assert set(fragmented.out_row(node_id, label)) == set(
                reference.out_row(node_id, label)
            )
            assert set(fragmented.in_row(node_id, label)) == set(
                reference.in_row(node_id, label)
            )
            assert fragmented.out_degree(node_id, label) == reference.out_degree(
                node_id, label
            )


class TestPartitionInvariants:
    @pytest.mark.parametrize("mode", PARTITION_MODES)
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_structural_invariants(self, mode, k):
        graph = validation_workload(80, rng=3)
        fragmentation = partition_graph(graph, k, mode)
        fragmentation.check(graph)

    @pytest.mark.parametrize("mode", PARTITION_MODES)
    def test_every_edge_owned_exactly_once(self, mode):
        graph = validation_workload(60, rng=7)
        fragmentation = partition_graph(graph, 3, mode)
        owned = [
            edge
            for fragment in fragmentation.fragments
            for edge in fragment.graph.edges
            if fragmentation.owner[edge[0]] == fragment.index
        ]
        assert sorted(owned) == sorted(graph.edges)
        assert len(owned) == len(set(owned))

    def test_partition_is_deterministic(self):
        graph = clustered_workload(120, n_clusters=4, rng=5)
        for mode in PARTITION_MODES:
            first = partition_graph(graph, 4, mode)
            second = partition_graph(graph, 4, mode)
            assert first.owner == second.owner

    def test_greedy_beats_hash_on_clustered_data(self):
        graph = clustered_workload(240, n_clusters=8, rng=11)
        hash_cut = partition_graph(graph, 4, "hash").cut_edges()
        greedy_cut = partition_graph(graph, 4, "greedy").cut_edges()
        assert greedy_cut < hash_cut

    def test_greedy_stays_balanced(self):
        graph = clustered_workload(200, n_clusters=5, rng=2)
        stats = fragment_stats(partition_graph(graph, 4, "greedy"))
        assert stats["balance"] >= 0.8

    def test_bad_arguments_rejected(self):
        graph = small_graph(1)
        with pytest.raises(ValueError, match="fragment count"):
            partition_graph(graph, 0)
        with pytest.raises(ValueError, match="mode"):
            partition_graph(graph, 2, "metis")

    def test_unknown_node_raises(self):
        fragmented = FragmentedGraph.partition(small_graph(1), 2)
        with pytest.raises(GraphError, match="unknown node"):
            fragmented.node("nope")
        with pytest.raises(GraphError, match="unknown node"):
            fragmented.successors("nope")


class TestFacadeEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=5),
        mode=st.sampled_from(PARTITION_MODES),
    )
    @settings(max_examples=25, deadline=None)
    def test_read_api_matches_monolith(self, seed, k, mode):
        graph = small_graph(seed)
        fragmented = FragmentedGraph.partition(graph, k, mode)
        assert_facade_equivalent(fragmented, graph)

    def test_to_graph_roundtrip(self):
        graph = validation_workload(60, rng=9)
        fragmented = FragmentedGraph.partition(graph, 3, "greedy")
        assert fragmented.to_graph() == graph


class TestChurnEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        k=st.integers(min_value=2, max_value=4),
        mode=st.sampled_from(PARTITION_MODES),
        indexed=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_churn_stream(self, seed, k, mode, indexed):
        stream = churn_stream(n_nodes=60, batches=8, batch_size=6, rng=seed)
        reference = stream.base.copy()
        fragmented = FragmentedGraph.partition(reference, k, mode, indexed=indexed)
        version_before = fragmented.version
        for update in stream.updates:
            apply_update_indexed(reference, update)
            fragmented.apply_update(update)
            fragmented.fragmentation.check(reference)
        assert fragmented.version == version_before + len(stream.updates)
        assert_facade_equivalent(fragmented, reference)

    @pytest.mark.parametrize("mode", PARTITION_MODES)
    def test_social_churn_stream(self, mode):
        stream = social_churn_stream(n_rings=3, batches=10, batch_size=6, rng=4)
        reference = stream.base.copy()
        fragmented = FragmentedGraph.partition(reference, 3, mode)
        for update in stream.updates:
            apply_update_indexed(reference, update)
            fragmented.apply_update(update)
        fragmented.fragmentation.check(reference)
        assert_facade_equivalent(fragmented, reference)

    def test_per_fragment_indexes_stay_synced(self):
        stream = churn_stream(n_nodes=60, batches=6, batch_size=6, rng=3)
        fragmented = FragmentedGraph.partition(stream.base.copy(), 3, "hash", indexed=True)
        for update in stream.updates:
            fragmented.apply_update(update)
        for fragment in fragmented.fragments:
            assert get_index(fragment.graph) is not None  # synced, not stale

    def test_routed_slices_smaller_than_full_replication(self):
        """The point of routing: per-worker log traffic ≪ k × batch."""
        stream = churn_stream(n_nodes=120, batches=10, batch_size=8, rng=13)
        fragmented = FragmentedGraph.partition(stream.base.copy(), 4, "greedy")
        routed_total = 0
        full_total = 0
        for update in stream.updates:
            routed = fragmented.apply_update(update)
            routed_total += routed.total_operations()
            full_total += 4 * update.size()
        assert routed_total < full_total

    def test_replace_retires_and_refreshes_cross_fragment_replicas(self):
        """Delete + re-add of a border-replicated node: without the
        cross edge both replicas retire (graph *and* border_owner
        bookkeeping); re-adding the edge keeps them, with fresh attrs."""
        import zlib

        ids = [f"n{i}" for i in range(20)]
        a = next(i for i in ids if zlib.crc32(i.encode()) % 2 == 0)
        b = next(i for i in ids if zlib.crc32(i.encode()) % 2 == 1)

        def fresh() -> Graph:
            graph = Graph()
            graph.add_node(a, "user")
            graph.add_node(b, "item")
            graph.add_edge(a, "buys", b)
            return graph

        from repro.graph.update import apply_update_plain

        drop = GraphUpdate(nodes=[(b, "item", {})], del_nodes=[b])
        fragmented = FragmentedGraph.partition(fresh(), 2, "hash")
        assert fragmented.fragmentation.replicated_nodes() == 2
        fragmented.apply_update(drop)
        reference = apply_update_plain(fresh(), drop)
        fragmented.fragmentation.check(reference)
        assert fragmented.fragmentation.replicated_nodes() == 0

        keep = GraphUpdate(
            nodes=[(b, "item", {"score": 2})], edges=[(a, "buys", b)], del_nodes=[b]
        )
        fragmented = FragmentedGraph.partition(fresh(), 2, "hash")
        fragmented.apply_update(keep)
        reference = apply_update_plain(fresh(), keep)
        fragmented.fragmentation.check(reference)
        assert fragmented.fragmentation.replicated_nodes() == 2
        assert fragmented.node(b).get("score") == 2

    def test_atomicity_bad_batch_leaves_fragments_untouched(self):
        graph = small_graph(5)
        fragmented = FragmentedGraph.partition(graph, 2, "hash")
        before_edges = fragmented.edges
        bad = GraphUpdate(edges=[(graph.node_ids[0], "buys", "missing-node")])
        with pytest.raises(GraphError):
            fragmented.apply_update(bad)
        assert fragmented.edges == before_edges
        fragmented.fragmentation.check(graph)


class TestFragmentationRegistry:
    def test_cache_hits_until_mutation(self):
        graph = validation_workload(50, rng=1)
        first = get_fragments(graph, 3, "hash")
        assert get_fragments(graph, 3, "hash") is first
        assert get_fragments(graph, 2, "hash") is not first
        graph.set_attribute(graph.node_ids[0], "score", 9)
        assert get_fragments(graph, 3, "hash") is not first

    def test_index_decision_mirrors_coordinator(self):
        graph = validation_workload(50, rng=1)
        assert not get_fragments(graph, 3, "hash").indexed
        attach_index(graph)
        fragmentation = get_fragments(graph, 3, "hash")
        assert fragmentation.indexed
        for fragment in fragmentation.fragments:
            assert get_index(fragment.graph) is not None
