"""Tests for the sparse-id densifying shim (repro.workloads.remap)."""

import numpy as np
import pytest

from repro.caching.engine import replay_table_cache_batched
from repro.caching.policies import CacheAllBlockPolicy
from repro.nvm.block import BlockLayout
from repro.workloads import IdRemapper
from repro.workloads.trace import Trace


def sparse_queries(rng, universe, num_queries=40, max_len=6):
    return [
        rng.choice(universe, size=rng.integers(1, max_len + 1), replace=False)
        for _ in range(num_queries)
    ]


def remapper_over(queries):
    """The remapper over every id in ``queries``."""
    return IdRemapper(np.concatenate(queries) if queries else np.empty(0, np.int64))


def densify(trace):
    """The loader's densifying pass on one whole trace: (dense trace, remapper)."""
    remapper = remapper_over(trace.queries)
    dense = Trace([remapper.to_dense(q) for q in trace.queries], num_vectors=remapper.num_ids)
    return dense, remapper


class TestIdRemapper:
    def test_round_trip_and_rank_order(self):
        remapper = IdRemapper(np.array([2**62, 7, 10**15, 7, 3]))
        assert remapper.num_ids == 4
        # Dense ids are sorted-rank: mapping is order-stable, not order-of-appearance.
        np.testing.assert_array_equal(remapper.to_dense([3, 7, 10**15, 2**62]), [0, 1, 2, 3])
        np.testing.assert_array_equal(remapper.to_dense([10**15, 3, 2**62]), [2, 0, 3])

    def test_unknown_ids_raise(self):
        remapper = IdRemapper(np.array([5, 9]))
        with pytest.raises(KeyError):
            remapper.to_dense([5, 6])
        with pytest.raises(KeyError):
            remapper.to_dense([10**18])  # beyond every observed id

    def test_stable_across_slices_of_same_universe(self):
        # Two traces drawn from one universe get compatible mappings as long
        # as the remapper is built over their union.
        rng = np.random.default_rng(0)
        universe = rng.choice(2**60, size=64, replace=False)
        head = sparse_queries(rng, universe)
        tail = sparse_queries(rng, universe)
        remapper = remapper_over(head + tail)
        joint = remapper_over(tail + head)
        assert remapper.num_ids == joint.num_ids
        seen = np.concatenate(head + tail)
        np.testing.assert_array_equal(remapper.to_dense(seen), joint.to_dense(seen))

    def test_empty(self):
        remapper = remapper_over([])
        assert remapper.num_ids == 0
        assert remapper.to_dense(np.empty(0, dtype=np.int64)).size == 0


class TestDensifyTrace:
    def test_densified_trace_fits_engine_bound(self):
        # The point of the shim: sparse 64-bit ids would imply an absurd
        # dense universe; after remapping the engine's flat arrays are sized
        # by the number of *distinct* ids.
        rng = np.random.default_rng(1)
        universe = rng.choice(2**63 - 1, size=96, replace=False)
        trace = Trace(sparse_queries(rng, universe, num_queries=100))
        assert trace.num_vectors > 2**32  # unusable directly
        dense, remapper = densify(trace)
        assert dense.num_vectors == remapper.num_ids <= 96
        layout = BlockLayout.identity(dense.num_vectors, 8)
        stats = replay_table_cache_batched(
            dense.queries, layout, CacheAllBlockPolicy(), cache_size=32
        )
        assert stats.lookups == trace.num_lookups

    def test_replay_counters_invariant_under_remapping(self):
        # Remapping renames ids; with a layout renamed the same way the
        # replay is step-for-step identical.  Compare a dense trace against
        # a shuffled-rename of itself.
        rng = np.random.default_rng(2)
        n = 64
        perm = rng.permutation(n).astype(np.int64) * 1000 + 17  # sparse rename
        dense_trace = Trace(
            [rng.integers(0, n, size=5) for _ in range(80)], num_vectors=n
        )
        sparse_trace = Trace([perm[q] for q in dense_trace.queries])
        redense, remapper = densify(sparse_trace)
        layout = BlockLayout.identity(n, 8)
        # Rename the layout's slots with the same bijection the remapper
        # chose, so physical co-location is preserved.
        order = remapper.to_dense(perm[layout.order])
        renamed = BlockLayout(order, vectors_per_block=8)
        baseline = replay_table_cache_batched(
            dense_trace.queries, layout, CacheAllBlockPolicy(), cache_size=16
        )
        remapped = replay_table_cache_batched(
            redense.queries, renamed, CacheAllBlockPolicy(), cache_size=16
        )
        assert remapped.counters() == baseline.counters()


class TestStreamingConstruction:
    """The loader's exact usage pattern: the remapper is folded together
    from streamed chunks, with ids arriving in no particular order, and must
    equal the one built from the whole trace at once."""

    def test_chunked_union_fold_equals_whole(self):
        rng = np.random.default_rng(4)
        universe = rng.choice(2**61, size=200, replace=False)
        queries = sparse_queries(rng, universe, num_queries=120)
        whole = remapper_over(queries)
        for chunk_size in (1, 7, 64):
            unique = np.empty(0, dtype=np.int64)
            for start in range(0, len(queries), chunk_size):
                chunk = queries[start : start + chunk_size]
                unique = np.union1d(unique, np.concatenate(chunk))
            folded = IdRemapper(unique)
            assert folded.num_ids == whole.num_ids
            for query in queries:
                np.testing.assert_array_equal(folded.to_dense(query), whole.to_dense(query))

    def test_arrival_order_is_irrelevant(self):
        # Ids arriving out of training-set order (descending, interleaved,
        # shuffled) all land on the same sorted-rank mapping.
        rng = np.random.default_rng(5)
        universe = rng.choice(2**59, size=80, replace=False)
        orderings = [
            universe,
            universe[::-1],
            rng.permutation(universe),
            np.concatenate([universe[1::2], universe[0::2]]),
        ]
        remappers = [IdRemapper(order) for order in orderings]
        for remapper in remappers[1:]:
            assert remapper.num_ids == remappers[0].num_ids
            np.testing.assert_array_equal(
                remapper.to_dense(universe), remappers[0].to_dense(universe)
            )

    def test_chunked_densify_replays_identically(self):
        # densify on the whole trace vs per-chunk remapping through a
        # shared remapper: same queries, same replay counters.
        rng = np.random.default_rng(6)
        universe = rng.choice(2**62, size=96, replace=False)
        trace = Trace(sparse_queries(rng, universe, num_queries=90))
        dense, remapper = densify(trace)
        chunked = []
        for start in range(0, len(trace.queries), 13):
            for query in trace.queries[start : start + 13]:
                chunked.append(remapper.to_dense(query))
        layout = BlockLayout.identity(dense.num_vectors, 8)
        whole_stats = replay_table_cache_batched(
            dense.queries, layout, CacheAllBlockPolicy(), cache_size=24
        )
        chunk_stats = replay_table_cache_batched(
            chunked, layout, CacheAllBlockPolicy(), cache_size=24
        )
        for got, expected in zip(chunked, dense.queries):
            np.testing.assert_array_equal(got, expected)
        assert chunk_stats.counters() == whole_stats.counters()
