"""Tests for the placement algorithms (identity, frequency, K-means, SHP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings.table import EmbeddingTable
from repro.nvm.block import BlockLayout
from repro.partitioning import (
    FrequencyPartitioner,
    IdentityPartitioner,
    KMeansPartitioner,
    RecursiveKMeansPartitioner,
    SHPPartitioner,
)
from repro.partitioning.kmeans import kmeans_cluster, order_by_labels
from repro.workloads.characterization import access_counts
from repro.workloads.trace import Trace


def assert_is_permutation(order: np.ndarray, num_vectors: int):
    assert order.shape == (num_vectors,)
    assert np.array_equal(np.sort(order), np.arange(num_vectors))


class TestIdentityPartitioner:
    def test_identity_order(self):
        result = IdentityPartitioner().partition(10)
        np.testing.assert_array_equal(result.order, np.arange(10))
        assert result.runtime_seconds >= 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            IdentityPartitioner().partition(0)


class TestFrequencyPartitioner:
    def test_orders_by_descending_count(self):
        trace = Trace([[2, 2, 3], [3], [3]], num_vectors=5)
        result = FrequencyPartitioner().partition(5, trace=trace)
        assert result.order[0] == 3  # most accessed first
        assert result.order[1] == 2
        assert_is_permutation(result.order, 5)

    def test_requires_trace(self):
        with pytest.raises(ValueError):
            FrequencyPartitioner().partition(5)

    def test_never_accessed_keep_id_order(self):
        trace = Trace([[4]], num_vectors=6)
        result = FrequencyPartitioner().partition(6, trace=trace)
        assert result.order.tolist() == [4, 0, 1, 2, 3, 5]


class TestKMeansClustering:
    def test_labels_and_centroids_shapes(self, rng):
        points = rng.normal(size=(200, 8)).astype(np.float32)
        labels, centroids, inertia = kmeans_cluster(points, 4, seed=0)
        assert labels.shape == (200,)
        assert centroids.shape == (4, 8)
        assert inertia >= 0

    def test_separable_clusters_recovered(self, rng):
        a = rng.normal(loc=0, size=(100, 4))
        b = rng.normal(loc=10, size=(100, 4))
        points = np.vstack([a, b]).astype(np.float32)
        labels, _, _ = kmeans_cluster(points, 2, seed=1)
        # All of `a` in one cluster, all of `b` in the other.
        assert len(set(labels[:100])) == 1
        assert len(set(labels[100:])) == 1
        assert labels[0] != labels[150]

    def test_single_cluster(self, rng):
        points = rng.normal(size=(10, 3)).astype(np.float32)
        labels, centroids, _ = kmeans_cluster(points, 1)
        assert (labels == 0).all()
        np.testing.assert_allclose(centroids[0], points.mean(axis=0), atol=1e-5)

    def test_more_clusters_than_points_clamped(self, rng):
        points = rng.normal(size=(5, 2)).astype(np.float32)
        labels, centroids, _ = kmeans_cluster(points, 50)
        assert centroids.shape[0] == 5

    def test_order_by_labels_groups_contiguously(self):
        labels = np.array([1, 0, 1, 0, 2])
        order = order_by_labels(labels)
        grouped = labels[order]
        # Once a label changes it never reappears.
        changes = np.flatnonzero(np.diff(grouped) != 0)
        assert len(changes) == len(np.unique(labels)) - 1

    def test_invalid_values_shape(self):
        with pytest.raises(ValueError):
            kmeans_cluster(np.zeros(10), 2)


class TestKMeansPartitioner:
    def test_produces_permutation(self, small_spec, embedding_table):
        partitioner = KMeansPartitioner(num_clusters=16, num_iterations=5, seed=0)
        result = partitioner.partition(small_spec.num_vectors, table=embedding_table)
        assert_is_permutation(result.order, small_spec.num_vectors)
        assert result.details["num_clusters"] == 16

    def test_requires_table(self):
        with pytest.raises(ValueError):
            KMeansPartitioner(num_clusters=4).partition(100)

    def test_size_mismatch_rejected(self, embedding_table):
        with pytest.raises(ValueError):
            KMeansPartitioner(num_clusters=4).partition(
                embedding_table.num_vectors + 1, table=embedding_table
            )


class TestRecursiveKMeansPartitioner:
    def test_produces_permutation(self, small_spec, embedding_table):
        partitioner = RecursiveKMeansPartitioner(
            num_top_clusters=8, num_sub_clusters=64, num_iterations=4, seed=0
        )
        result = partitioner.partition(small_spec.num_vectors, table=embedding_table)
        assert_is_permutation(result.order, small_spec.num_vectors)
        assert result.details["num_leaf_clusters"] >= 8

    def test_leaf_budget_validation(self):
        with pytest.raises(ValueError):
            RecursiveKMeansPartitioner(num_top_clusters=64, num_sub_clusters=8)

    def test_requires_table(self):
        with pytest.raises(ValueError):
            RecursiveKMeansPartitioner().partition(100)


class TestSHPPartitioner:
    def test_produces_permutation(self, small_spec, train_trace):
        partitioner = SHPPartitioner(vectors_per_block=32, num_iterations=4, seed=0)
        result = partitioner.partition(small_spec.num_vectors, trace=train_trace)
        assert_is_permutation(result.order, small_spec.num_vectors)
        assert result.details["num_training_queries"] > 0

    def test_requires_trace(self):
        with pytest.raises(ValueError):
            SHPPartitioner().partition(100)

    def test_reduces_average_fanout(self, small_spec, train_trace, eval_trace):
        partitioner = SHPPartitioner(vectors_per_block=32, num_iterations=8, seed=0)
        result = partitioner.partition(small_spec.num_vectors, trace=train_trace)
        shp_layout = result.layout(32)
        identity = BlockLayout.identity(small_spec.num_vectors, 32)
        # SHP's objective: queries touch fewer blocks than under the original
        # layout, on a held-out trace.
        assert shp_layout.average_fanout(eval_trace.queries) < identity.average_fanout(
            eval_trace.queries
        )

    def test_more_iterations_do_not_hurt(self, small_spec, train_trace, eval_trace):
        fanouts = []
        for iterations in (1, 8):
            layout = (
                SHPPartitioner(vectors_per_block=32, num_iterations=iterations, seed=0)
                .partition(small_spec.num_vectors, trace=train_trace)
                .layout(32)
            )
            fanouts.append(layout.average_fanout(eval_trace.queries))
        assert fanouts[1] <= fanouts[0] * 1.05

    def test_max_queries_cap(self, small_spec, train_trace):
        partitioner = SHPPartitioner(num_iterations=2, max_queries=10)
        result = partitioner.partition(small_spec.num_vectors, trace=train_trace)
        assert result.details["num_training_queries"] <= 10

    def test_handles_trace_with_no_multi_id_queries(self):
        trace = Trace([[1], [2], [3]], num_vectors=64)
        result = SHPPartitioner(vectors_per_block=8, num_iterations=2).partition(
            64, trace=trace
        )
        assert_is_permutation(result.order, 64)

    def test_trace_larger_than_table_rejected(self):
        trace = Trace([[1, 200]], num_vectors=201)
        with pytest.raises(ValueError):
            SHPPartitioner().partition(100, trace=trace)


def flatten_queries_one_at_a_time(partitioner, trace):
    """The per-query definition ``SHPPartitioner._flatten_queries`` must equal:
    each query's sorted distinct ids, queries with fewer than two dropped and
    the rest numbered consecutively."""
    queries = trace.queries
    if partitioner.max_queries is not None:
        queries = queries[: partitioner.max_queries]
    members, query_ids, next_query = [], [], 0
    for query in queries:
        ids = np.unique(query)
        if ids.size < 2:
            continue
        members.append(ids.astype(np.int64))
        query_ids.append(np.full(ids.size, next_query, dtype=np.int64))
        next_query += 1
    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate(members) if members else empty,
        np.concatenate(query_ids) if query_ids else empty,
        next_query,
    )


class TestFlattenQueriesMatchesPerQueryDefinition:
    @staticmethod
    def assert_same(trace, max_queries=None):
        partitioner = SHPPartitioner(max_queries=max_queries)
        fast = partitioner._flatten_queries(trace)
        slow = flatten_queries_one_at_a_time(partitioner, trace)
        for a, b in zip(fast[:2], slow[:2]):
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)
        assert fast[2] == slow[2]

    @pytest.mark.parametrize("max_queries", [None, 1, 3, 100])
    def test_single_id_and_duplicate_id_queries(self, max_queries):
        # Empty queries never reach SHP (Trace drops them); single-id and
        # all-duplicate queries do, and must not consume a query number.
        trace = Trace(
            [[9], [4, 4, 4], [], [7, 2, 7, 2, 5], [0], [63, 1], [3, 3], [8, 6, 8]],
            num_vectors=64,
        )
        assert len(trace) == 7
        self.assert_same(trace, max_queries)

    def test_nothing_left_to_flatten(self):
        self.assert_same(Trace([], num_vectors=8))
        self.assert_same(Trace([[1], [2, 2]], num_vectors=8))

    def test_generated_trace(self, train_trace):
        self.assert_same(train_trace)
        self.assert_same(train_trace, max_queries=17)

    @given(
        queries=st.lists(
            st.lists(st.integers(min_value=0, max_value=40), max_size=9), max_size=25
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_traces(self, queries):
        self.assert_same(Trace(queries, num_vectors=41))


@given(
    num_vectors=st.integers(min_value=32, max_value=256),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=15, deadline=None)
def test_shp_always_produces_permutation(num_vectors, seed):
    """SHP must output a valid permutation for arbitrary small hypergraphs."""
    rng = np.random.default_rng(seed)
    queries = [
        rng.choice(num_vectors, size=rng.integers(2, 8), replace=False)
        for _ in range(20)
    ]
    trace = Trace(queries, num_vectors=num_vectors)
    result = SHPPartitioner(vectors_per_block=8, num_iterations=3, seed=seed).partition(
        num_vectors, trace=trace
    )
    assert_is_permutation(result.order, num_vectors)
