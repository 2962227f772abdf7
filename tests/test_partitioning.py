"""Tests for the placement algorithms (frequency, K-means, SHP)."""

import hashlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partitioning.shp as shp_module
from repro.nvm.block import BlockLayout
from repro.partitioning import (
    FrequencyPartitioner,
    KMeansPartitioner,
    RecursiveKMeansPartitioner,
    SHPPartitioner,
)
from repro.partitioning.kmeans import kmeans_cluster, order_by_labels
from repro.scenarios import ScenarioConfig, generate_scenario_trace
from repro.utils.rng import ensure_rng
from repro.workloads import (
    SyntheticTraceGenerator,
    paper_shaped_lookups,
    scaled_table_specs,
)
from repro.workloads.trace import Trace
from tests.conftest import average_fanout, golden


def assert_is_permutation(order: np.ndarray, num_vectors: int):
    assert order.shape == (num_vectors,)
    assert np.array_equal(np.sort(order), np.arange(num_vectors))


class TestNumVectorsValidation:
    @pytest.mark.parametrize(
        "num_vectors, error",
        [(0, ValueError), (8.5, TypeError), ("8", TypeError), (True, TypeError), (-3, ValueError)],
    )
    @pytest.mark.parametrize("partitioner", [FrequencyPartitioner, SHPPartitioner])
    def test_non_integer_size_rejected(self, partitioner, num_vectors, error):
        # Shared by every partitioner: 8.5 used to truncate to 8 silently.
        with pytest.raises(error, match="num_vectors"):
            partitioner().partition(num_vectors, trace=Trace([[0, 1]], num_vectors=2))


class TestEachPartitionerTakesOnlyTheInputItReads:
    @pytest.mark.parametrize(
        "build, unread",
        [
            (FrequencyPartitioner, "table"),
            (SHPPartitioner, "table"),
            (lambda: KMeansPartitioner(num_clusters=4), "trace"),
            (RecursiveKMeansPartitioner, "trace"),
        ],
        ids=["frequency", "shp", "kmeans", "recursive-kmeans"],
    )
    def test_the_other_input_is_rejected(self, build, unread, embedding_table):
        # The input a partitioner does not read is no parameter of its
        # ``partition``, so passing it is an error instead of being ignored.
        inputs = {"trace": Trace([[0, 1]], num_vectors=2), "table": embedding_table}
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{unread}'"):
            build().partition(embedding_table.num_vectors, **{unread: inputs[unread]})


class TestFrequencyPartitioner:
    def test_orders_by_descending_count(self):
        trace = Trace([[2, 2, 3], [3], [3]], num_vectors=5)
        result = FrequencyPartitioner().partition(5, trace=trace)
        assert result.order[0] == 3  # most accessed first
        assert result.order[1] == 2
        assert_is_permutation(result.order, 5)

    def test_never_accessed_keep_id_order(self):
        trace = Trace([[4]], num_vectors=6)
        result = FrequencyPartitioner().partition(6, trace=trace)
        assert result.order.tolist() == [4, 0, 1, 2, 3, 5]

    def test_requires_trace(self):
        # The trace is a required argument, so leaving it out fails before
        # any placement runs.
        with pytest.raises(TypeError, match="trace"):
            FrequencyPartitioner().partition(5)


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
        partitioner = KMeansPartitioner(num_clusters=16, num_iterations=5)
        result = partitioner.partition(small_spec.num_vectors, table=embedding_table)
        assert_is_permutation(result.order, small_spec.num_vectors)
        assert result.details["num_clusters"] == 16

    def test_size_mismatch_rejected(self, embedding_table):
        with pytest.raises(ValueError):
            KMeansPartitioner(num_clusters=4).partition(
                embedding_table.num_vectors + 1, table=embedding_table
            )

    def test_requires_table(self):
        with pytest.raises(TypeError, match="table"):
            KMeansPartitioner(num_clusters=4).partition(100)


class TestRecursiveKMeansPartitioner:
    def test_produces_permutation(self, small_spec, embedding_table):
        partitioner = RecursiveKMeansPartitioner(
            num_top_clusters=8, num_sub_clusters=64, num_iterations=4
        )
        result = partitioner.partition(small_spec.num_vectors, table=embedding_table)
        assert_is_permutation(result.order, small_spec.num_vectors)
        assert result.details["num_leaf_clusters"] >= 8

    def test_leaf_budget_validation(self):
        with pytest.raises(ValueError):
            RecursiveKMeansPartitioner(num_top_clusters=64, num_sub_clusters=8)

    def test_requires_table(self):
        with pytest.raises(TypeError, match="table"):
            RecursiveKMeansPartitioner().partition(100)


class TestSHPPartitioner:
    def test_requires_trace(self):
        with pytest.raises(TypeError, match="trace"):
            SHPPartitioner().partition(100)

    def test_produces_permutation(self, small_spec, train_trace):
        partitioner = SHPPartitioner(vectors_per_block=32, num_iterations=4, seed=0)
        result = partitioner.partition(small_spec.num_vectors, trace=train_trace)
        assert_is_permutation(result.order, small_spec.num_vectors)
        assert result.details["num_training_queries"] > 0

    def test_reduces_average_fanout(self, small_spec, train_trace, eval_trace):
        partitioner = SHPPartitioner(vectors_per_block=32, num_iterations=8, seed=0)
        result = partitioner.partition(small_spec.num_vectors, trace=train_trace)
        shp_layout = result.layout(32)
        identity = BlockLayout.identity(small_spec.num_vectors, 32)
        # SHP's objective: queries touch fewer blocks than under the original
        # layout, on a held-out trace.
        assert average_fanout(shp_layout, eval_trace.queries) < average_fanout(
            identity, eval_trace.queries
        )

    def test_more_iterations_do_not_hurt(self, small_spec, train_trace, eval_trace):
        fanouts = []
        for iterations in (1, 8):
            layout = (
                SHPPartitioner(vectors_per_block=32, num_iterations=iterations, seed=0)
                .partition(small_spec.num_vectors, trace=train_trace)
                .layout(32)
            )
            fanouts.append(average_fanout(layout, eval_trace.queries))
        assert fanouts[1] <= fanouts[0] * 1.05

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

    @pytest.mark.parametrize(
        "argument, value, error",
        [
            ("vectors_per_block", 2.5, TypeError),
            ("vectors_per_block", "4", TypeError),
            ("vectors_per_block", 0, ValueError),
            ("num_iterations", 1.9, TypeError),
            ("num_iterations", True, TypeError),
            ("num_iterations", 0, ValueError),
            ("seed", 1.7, TypeError),
            ("seed", -1, ValueError),
        ],
    )
    def test_non_integer_arguments_rejected(self, argument, value, error):
        with pytest.raises(error, match=argument):
            SHPPartitioner(**{argument: value})

    def test_numpy_integer_arguments_accepted(self):
        partitioner = SHPPartitioner(
            vectors_per_block=np.int64(8),
            num_iterations=np.int32(2),
            seed=np.int64(5),
        )
        assert (
            partitioner.vectors_per_block,
            partitioner.num_iterations,
            partitioner.seed,
        ) == (8, 2, 5)
        assert type(partitioner.seed) is int


def flatten_queries_one_at_a_time(trace):
    """The per-query definition ``SHPPartitioner._flatten_queries`` must equal:
    each query's sorted distinct ids, queries with fewer than two dropped and
    the rest numbered consecutively."""
    members, query_ids, next_query = [], [], 0
    for query in trace.queries:
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
    def assert_same(trace, num_queries=None):
        """Compare on the first ``num_queries`` queries of ``trace`` (all by default)."""
        trace = Trace(trace.queries[:num_queries], num_vectors=trace.num_vectors)
        fast = SHPPartitioner()._flatten_queries(trace)
        slow = flatten_queries_one_at_a_time(trace)
        for a, b in zip(fast[:2], slow[:2]):
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)
        assert fast[2] == slow[2]

    @pytest.mark.parametrize("num_queries", [None, 1, 3, 100])
    def test_single_id_and_duplicate_id_queries(self, num_queries):
        # Empty queries never reach SHP (Trace drops them); single-id and
        # all-duplicate queries do, and must not consume a query number.
        trace = Trace(
            [[9], [4, 4, 4], [], [7, 2, 7, 2, 5], [0], [63, 1], [3, 3], [8, 6, 8]],
            num_vectors=64,
        )
        assert len(trace) == 7
        self.assert_same(trace, num_queries)

    def test_nothing_left_to_flatten(self):
        self.assert_same(Trace([], num_vectors=8))
        self.assert_same(Trace([[1], [2, 2]], num_vectors=8))

    def test_generated_trace(self, train_trace):
        self.assert_same(train_trace)
        self.assert_same(train_trace, num_queries=17)

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


# ------------------------------------------------------- per-node reference
@dataclass
class _SubProblem:
    """One node of the recursive bisection tree.

    ``vertex_ids`` are global vector ids; ``members``/``query_ids`` form the
    flattened membership list of the queries restricted to this vertex set,
    with ``members`` holding *local* vertex indices (0..len(vertex_ids)-1).
    """

    vertex_ids: np.ndarray
    members: np.ndarray
    query_ids: np.ndarray
    num_queries: int
    depth: int


def _bisect_reference(problem, num_iterations, rng):
    """Refine a balanced bisection of one node: (side per local vertex, swaps)."""
    num_vertices = problem.vertex_ids.size
    half = num_vertices // 2
    # Balanced random initial split: `half` vertices on side 1.
    side = np.zeros(num_vertices, dtype=np.int8)
    side[rng.permutation(num_vertices)[:half]] = 1

    members = problem.members
    query_ids = problem.query_ids
    num_queries = problem.num_queries
    total_swaps = 0
    if members.size == 0 or num_queries == 0:
        return side, 0

    membership_counts = np.bincount(query_ids, minlength=num_queries)
    for _ in range(num_iterations):
        member_side = side[members]
        count_side1 = np.bincount(query_ids, weights=member_side, minlength=num_queries)
        count_side0 = membership_counts - count_side1

        # Per-membership gain of moving that vertex to the other side: leaving
        # a side it occupies alone removes one block from the query's fanout
        # (+1 gain); entering a side the query does not yet touch adds one
        # (-1 gain).
        on_side1 = member_side.astype(bool)
        count_here = np.where(on_side1, count_side1[query_ids], count_side0[query_ids])
        count_there = np.where(on_side1, count_side0[query_ids], count_side1[query_ids])
        contribution = (count_here == 1).astype(np.float64) - (count_there == 0)
        gain = np.bincount(members, weights=contribution, minlength=num_vertices)

        side0_vertices = np.where(side == 0)[0]
        side1_vertices = np.where(side == 1)[0]
        if side0_vertices.size == 0 or side1_vertices.size == 0:
            break
        side0_sorted = side0_vertices[np.argsort(-gain[side0_vertices], kind="stable")]
        side1_sorted = side1_vertices[np.argsort(-gain[side1_vertices], kind="stable")]
        pairs = min(side0_sorted.size, side1_sorted.size)
        combined = gain[side0_sorted[:pairs]] + gain[side1_sorted[:pairs]]
        # Both gain sequences are non-increasing, so the combined gain is
        # non-increasing and the positive prefix is a contiguous block.
        num_swaps = int((combined > 0).sum())
        if num_swaps == 0:
            break
        side[side0_sorted[:num_swaps]] = 1
        side[side1_sorted[:num_swaps]] = 0
        total_swaps += num_swaps
    return side, total_swaps


def _split_reference(problem, side):
    """Split a node into its two children given a side assignment."""
    children = []
    for child_side in (0, 1):
        vertex_mask = side == child_side
        child_vertices = problem.vertex_ids[vertex_mask]
        # Local re-indexing of the child's vertices.
        local_index = np.full(problem.vertex_ids.size, -1, dtype=np.int64)
        local_index[np.where(vertex_mask)[0]] = np.arange(child_vertices.size)

        child_members = np.empty(0, dtype=np.int64)
        child_query_ids = np.empty(0, dtype=np.int64)
        num_child_queries = 0
        if problem.members.size:
            member_mask = side[problem.members] == child_side
            child_members = local_index[problem.members[member_mask]]
            child_query_ids = problem.query_ids[member_mask]
            # Keep only queries that still have >= 2 members on this side;
            # single-member queries cannot affect any further bisection.
            if child_query_ids.size:
                keep = np.bincount(child_query_ids)[child_query_ids] >= 2
                child_members = child_members[keep]
                child_query_ids = child_query_ids[keep]
            if child_query_ids.size:
                _, child_query_ids = np.unique(child_query_ids, return_inverse=True)
                num_child_queries = int(child_query_ids.max()) + 1
        children.append(
            _SubProblem(
                vertex_ids=child_vertices,
                members=child_members,
                query_ids=child_query_ids,
                num_queries=num_child_queries,
                depth=problem.depth + 1,
            )
        )
    return children


def _partition_reference(partitioner, num_vectors, trace):
    """The depth-first, one-node-at-a-time SHP that ``partition`` replaced.

    Returns ``(order, total_swaps, max_depth, num_training_queries)``; the
    level-synchronous code must reproduce all four exactly.
    """
    rng = ensure_rng(partitioner.seed)
    members, query_ids, num_queries = partitioner._flatten_queries(trace)
    root = _SubProblem(
        vertex_ids=np.arange(num_vectors, dtype=np.int64),
        members=members,
        query_ids=query_ids,
        num_queries=num_queries,
        depth=0,
    )
    order_parts = []
    total_swaps = 0
    max_depth = 0
    # Depth-first, left child first, so the final order lays sibling leaves
    # next to each other (adjacent blocks share an ancestor split).
    stack = [root]
    while stack:
        problem = stack.pop()
        max_depth = max(max_depth, problem.depth)
        if problem.vertex_ids.size <= partitioner.vectors_per_block:
            order_parts.append(problem.vertex_ids)
            continue
        side, swaps = _bisect_reference(problem, partitioner.num_iterations, rng)
        total_swaps += swaps
        left, right = _split_reference(problem, side)
        # Push right first so the left child is processed first (LIFO).
        stack.append(right)
        stack.append(left)
    order = np.concatenate(order_parts).astype(np.int64)
    return order, total_swaps, max_depth, num_queries


def assert_matches_reference(partitioner, num_vectors, trace):
    result = partitioner.partition(num_vectors, trace=trace)
    order, total_swaps, max_depth, num_queries = _partition_reference(
        partitioner, num_vectors, trace
    )
    assert result.order.dtype == np.int64
    np.testing.assert_array_equal(result.order, order)
    assert result.details["total_swaps"] == total_swaps
    assert result.details["max_depth"] == max_depth
    assert result.details["num_training_queries"] == num_queries
    return result


@st.composite
def shp_cases(draw):
    """(num_vectors, trace, partitioner arguments) over the shapes SHP must survive."""
    num_vectors = draw(st.integers(min_value=1, max_value=700))
    # A trace may know fewer vectors than the table being partitioned.
    trace_vectors = draw(st.integers(min_value=1, max_value=num_vectors))
    # Most ids come from a small hot range, so queries overlap and nodes stay
    # hot many levels down; sizes 0 and 1 and repeated ids are all drawn.
    hot_vectors = draw(st.integers(min_value=1, max_value=trace_vectors))
    vertex = st.one_of(
        st.integers(min_value=0, max_value=hot_vectors - 1),
        st.integers(min_value=0, max_value=trace_vectors - 1),
    )
    queries = draw(st.lists(st.lists(vertex, max_size=10), max_size=40))
    arguments = {
        "vectors_per_block": draw(st.sampled_from([1, 2, 3, 32, 64])),
        "num_iterations": draw(st.integers(min_value=1, max_value=16)),
        "seed": draw(st.integers(min_value=0, max_value=5)),
    }
    return num_vectors, Trace(queries, num_vectors=trace_vectors), arguments


class _Spy:
    """Record what the level-synchronous code did, for tests that must hit a path."""

    def __init__(self, monkeypatch):
        self.sort_bounds = []
        self.nodes_dropped = []
        stable_argsort = shp_module._stable_argsort
        restricted_to = shp_module._WorkingSet.restricted_to

        def spy_argsort(keys, bound):
            self.sort_bounds.append(bound)
            return stable_argsort(keys, bound)

        def spy_restricted_to(work, nodes):
            self.nodes_dropped.append(int(nodes.size - nodes.sum()))
            return restricted_to(work, nodes)

        monkeypatch.setattr(shp_module, "_stable_argsort", spy_argsort)
        monkeypatch.setattr(shp_module._WorkingSet, "restricted_to", spy_restricted_to)


class TestLevelSynchronousMatchesPerNodeReference:
    @given(case=shp_cases())
    @settings(max_examples=150, deadline=None)
    def test_random_cases(self, case):
        num_vectors, trace, arguments = case
        assert_matches_reference(SHPPartitioner(**arguments), num_vectors, trace)

    @pytest.mark.parametrize("vectors_per_block", [32, 64, 700])
    def test_table_no_larger_than_a_block(self, vectors_per_block):
        trace = Trace([[0, 5, 9], [3, 5]], num_vectors=32)
        result = assert_matches_reference(
            SHPPartitioner(vectors_per_block=vectors_per_block), 32, trace
        )
        np.testing.assert_array_equal(result.order, np.arange(32))
        assert result.details["max_depth"] == 0

    @pytest.mark.parametrize(
        "queries",
        [[], [[3], [7], [7]], [[4, 4, 4], [9, 9]], [[1, 2, 1, 2, 60], [60, 2], [5]]],
        ids=["no-queries", "single-id", "duplicate-ids-only", "mixed"],
    )
    def test_degenerate_traces(self, queries):
        trace = Trace(queries, num_vectors=61)
        assert_matches_reference(SHPPartitioner(vectors_per_block=3, seed=2), 131, trace)

    def test_generated_trace(self, small_spec, train_trace):
        head = Trace(train_trace.queries[:40], num_vectors=train_trace.num_vectors)
        for trace in (train_trace, head):
            partitioner = SHPPartitioner(num_iterations=6, seed=1)
            assert_matches_reference(partitioner, small_spec.num_vectors, trace)

    def test_leaves_at_mixed_depths(self):
        # 65 -> 33 + 32: the right child is a leaf one level above its cousins.
        rng = np.random.default_rng(0)
        trace = Trace([rng.integers(0, 65, size=5) for _ in range(30)], num_vectors=65)
        result = assert_matches_reference(SHPPartitioner(vectors_per_block=32), 65, trace)
        assert result.details["max_depth"] == 2

    def test_both_sort_key_widths(self, monkeypatch):
        # One query repeated 5000 times gives its vertices a gain near -5000
        # wherever they sit together, so the rank key (2 * nodes * gain span)
        # outgrows 16 bits a few levels down and the sort falls back to int64;
        # at the root (one node) it still fits.
        spy = _Spy(monkeypatch)
        rng = np.random.default_rng(0)
        queries = [[0, 1, 2]] * 5000 + [rng.integers(0, 600, size=8) for _ in range(150)]
        trace = Trace(queries, num_vectors=600)
        assert_matches_reference(
            SHPPartitioner(vectors_per_block=2, num_iterations=6), 600, trace
        )
        assert min(spy.sort_bounds) <= 1 << 16 < max(spy.sort_bounds)

    def test_converged_nodes_dropped_mid_level(self, monkeypatch):
        spy = _Spy(monkeypatch)
        rng = np.random.default_rng(1)
        trace = Trace([rng.integers(0, 350, size=6) for _ in range(60)], num_vectors=700)
        assert_matches_reference(
            SHPPartitioner(vectors_per_block=3, num_iterations=8, seed=1), 700, trace
        )
        assert spy.nodes_dropped and min(spy.nodes_dropped) >= 1


# ------------------------------------------------------- the static tree shape
def static_leaf_sizes(num_vectors, vectors_per_block):
    """Leaf sizes in depth-first order, and the depth, of the balanced tree:
    a node of ``n > vectors_per_block`` vertices splits into
    ``(n - n // 2, n // 2)`` whatever the refinement does."""
    if num_vectors <= vectors_per_block:
        return [num_vectors], 0
    half = num_vectors // 2
    left, left_depth = static_leaf_sizes(num_vectors - half, vectors_per_block)
    right, right_depth = static_leaf_sizes(half, vectors_per_block)
    return left + right, 1 + max(left_depth, right_depth)


@given(
    num_vectors=st.integers(min_value=1, max_value=900),
    vectors_per_block=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_shp_tree_shape_is_a_function_of_the_sizes_alone(
    num_vectors, vectors_per_block, seed
):
    """The invariant the level-synchronous design rests on.

    Every initial split is drawn before any refinement runs, which is only
    right while swaps keep each bisection balanced.  Were a change to break
    balance, this fails — and not as a silently different RNG stream.

    The leaves can be read off ``order``: a child is a stable selection from
    its parent and the root is ``arange``, so ids ascend inside every leaf and
    can only descend where one leaf ends and the next begins.
    """
    rng = np.random.default_rng(seed)
    queries = [
        rng.choice(num_vectors, size=min(num_vectors, int(rng.integers(2, 9))), replace=False)
        for _ in range(25)
    ]
    result = SHPPartitioner(
        vectors_per_block=vectors_per_block, num_iterations=4, seed=seed
    ).partition(num_vectors, trace=Trace(queries, num_vectors=num_vectors))
    assert_is_permutation(result.order, num_vectors)

    leaf_sizes, depth = static_leaf_sizes(num_vectors, vectors_per_block)
    assert result.details["max_depth"] == depth
    assert max(leaf_sizes) <= vectors_per_block
    leaf_ends = np.cumsum(leaf_sizes)
    assert leaf_ends[-1] == num_vectors
    descents = np.flatnonzero(np.diff(result.order) < 0) + 1
    assert np.isin(descents, leaf_ends).all()


# ---------------------------------------------------------------- seeded golden
def shp_digest(result):
    return {
        "sha256": hashlib.sha256(result.order.astype("<i8").tobytes()).hexdigest(),
        "total_swaps": result.details["total_swaps"],
        "max_depth": result.details["max_depth"],
        "num_training_queries": result.details["num_training_queries"],
    }


def golden_shp_digests():
    """SHP on the two shapes the benchmark drives: whole tables with the
    paper's 16 iterations (table1 and table6 at 1/2000, the traces of
    ledger entry ``generator_digests``) and a re-partition on a 400-query
    drift window with 8.  Captured from the depth-first, one-node-at-a-time
    implementation before the level-synchronous rewrite.  An order is a pure
    function of (trace, sizes, iterations, seed); these change only when the
    algorithm or the seeded draw order changes — and every
    ``smoke_reference``, serving golden and benchmark ``sim_*`` value moves
    with them."""
    digests = {}
    specs = scaled_table_specs(1 / 2000, names=["table1", "table6"])
    for index, (name, spec) in enumerate(specs.items()):
        lookups = paper_shaped_lookups(spec)
        generator = SyntheticTraceGenerator(
            spec, seed=7 * 1009 + index, expected_lookups=lookups
        )
        trace = generator.generate_lookups(3 * lookups)
        partitioner = SHPPartitioner(vectors_per_block=32, num_iterations=16, seed=7)
        digests[name] = shp_digest(partitioner.partition(spec.num_vectors, trace=trace))
    window = generate_scenario_trace(
        ScenarioConfig(kind="drift", num_queries=400, num_vectors=2048, seed=7)
    )
    partitioner = SHPPartitioner(vectors_per_block=32, num_iterations=8, seed=7)
    digests["drift-window"] = shp_digest(partitioner.partition(2048, trace=window))
    return digests


class TestSeededGolden:
    def test_orders_match_the_pinned_digests(self):
        golden("shp_digests")
