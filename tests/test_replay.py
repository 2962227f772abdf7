"""Tests for the cache replay engine and its statistics."""

import numpy as np
import pytest

from repro.caching.policies import CacheAllBlockPolicy, NoPrefetchPolicy
from repro.caching.replay import (
    ReplayStats,
    effective_bandwidth_increase,
    replay_table_cache,
)
from repro.nvm.block import BlockLayout
from repro.nvm.latency import NVMLatencyModel
from tests.conftest import InspectableLRUCache


class TestReplayBasics:
    def test_every_lookup_counted(self):
        layout = BlockLayout.identity(64, 32)
        queries = [np.array([0, 1, 2]), np.array([0, 40])]
        stats = replay_table_cache(queries, layout, NoPrefetchPolicy(), cache_size=8)
        assert stats.lookups == 5
        assert stats.hits + stats.misses == 5

    def test_no_prefetch_repeated_access_hits(self):
        layout = BlockLayout.identity(64, 32)
        queries = [np.array([3]), np.array([3])]
        stats = replay_table_cache(queries, layout, NoPrefetchPolicy(), cache_size=4)
        assert stats.misses == 1 and stats.hits == 1
        assert stats.block_reads == 1

    def test_prefetch_turns_neighbour_into_hit(self):
        layout = BlockLayout.identity(64, 32)
        queries = [np.array([0]), np.array([1])]   # same block
        # The cache must be able to hold a whole block for the prefetch to
        # survive; with a smaller cache the 31 prefetched neighbours evict one
        # another (which is exactly the pathology of Figure 10).
        no_prefetch = replay_table_cache(queries, layout, NoPrefetchPolicy(), cache_size=64)
        prefetch = replay_table_cache(queries, layout, CacheAllBlockPolicy(), cache_size=64)
        assert no_prefetch.block_reads == 2
        assert prefetch.block_reads == 1
        assert prefetch.prefetch_hits >= 1

    def test_tiny_cache_prefetch_churn(self):
        # With a cache smaller than a block, whole-block prefetching churns:
        # the neighbours evict each other and the second lookup still misses.
        layout = BlockLayout.identity(64, 32)
        queries = [np.array([0]), np.array([1])]
        prefetch = replay_table_cache(queries, layout, CacheAllBlockPolicy(), cache_size=8)
        assert prefetch.block_reads == 2
        assert prefetch.evictions > 0

    def test_unlimited_cache_reads_each_block_once(self):
        layout = BlockLayout.identity(64, 32)
        queries = [np.array([0, 1, 33]), np.array([2, 34])]
        stats = replay_table_cache(queries, layout, CacheAllBlockPolicy(), cache_size=None)
        assert stats.block_reads == 2  # blocks 0 and 1

    def test_zero_capacity_cache_always_misses(self):
        layout = BlockLayout.identity(64, 32)
        queries = [np.array([0]), np.array([0])]
        stats = replay_table_cache(queries, layout, CacheAllBlockPolicy(), cache_size=0)
        assert stats.misses == 2
        assert stats.prefetch_admitted == 0

    def test_empty_queries_ignored(self):
        layout = BlockLayout.identity(32, 32)
        stats = replay_table_cache(
            [np.array([], dtype=np.int64)], layout, NoPrefetchPolicy(), cache_size=4
        )
        assert stats.lookups == 0

    def test_device_accounting(self):
        layout = BlockLayout.identity(64, 32)
        device = NVMLatencyModel()
        stats = replay_table_cache(
            [np.array([0, 40])], layout, NoPrefetchPolicy(), cache_size=4, device=device
        )
        assert stats.block_reads == 2
        assert stats.total_latency_us == 2 * device.mean_latency_us(8.0)

    def test_existing_cache_continues(self):
        layout = BlockLayout.identity(64, 32)
        cache = InspectableLRUCache(8)
        replay_table_cache([np.array([0])], layout, NoPrefetchPolicy(), cache=cache)
        stats = replay_table_cache([np.array([0])], layout, NoPrefetchPolicy(), cache=cache)
        assert stats.hits == 1 and stats.misses == 0

    def test_stats_accumulate(self):
        layout = BlockLayout.identity(64, 32)
        stats = ReplayStats(vector_bytes=128, block_bytes=4096)
        replay_table_cache([np.array([0])], layout, NoPrefetchPolicy(), cache_size=4, stats=stats)
        replay_table_cache([np.array([40])], layout, NoPrefetchPolicy(), cache_size=4, stats=stats)
        assert stats.lookups == 2

    def test_geometry_mismatch_rejected(self):
        layout = BlockLayout.identity(64, 32)
        stats = ReplayStats(vector_bytes=64, block_bytes=1024)
        with pytest.raises(ValueError):
            replay_table_cache(
                [np.array([0])], layout, NoPrefetchPolicy(), cache_size=4, stats=stats
            )


class TestReplayStatsDerived:
    def test_effective_bandwidth(self):
        stats = ReplayStats(vector_bytes=128, block_bytes=4096, lookups=100, hits=90, misses=10)
        assert stats.app_bytes == 100 * 128
        assert stats.nvm_bytes == 10 * 4096
        assert stats.effective_bandwidth == pytest.approx(12800 / 40960)
        assert stats.hit_rate == pytest.approx(0.9)

    def test_zero_reads(self):
        stats = ReplayStats()
        assert stats.effective_bandwidth == pytest.approx(0.0)
        assert stats.hit_rate == pytest.approx(0.0)

    def test_merge(self):
        a = ReplayStats(lookups=10, hits=5, misses=5)
        b = ReplayStats(lookups=20, hits=10, misses=10)
        merged = a.merge(b)
        assert merged.lookups == 30 and merged.hits == 15

    def test_merge_geometry_mismatch(self):
        with pytest.raises(ValueError):
            ReplayStats(vector_bytes=128).merge(ReplayStats(vector_bytes=64))


class TestBandwidthIncreaseOverBaseline:
    def test_half_the_reads_is_100_percent(self):
        baseline = ReplayStats(misses=100)
        candidate = ReplayStats(misses=50)
        assert effective_bandwidth_increase(baseline, candidate) == pytest.approx(1.0)

    def test_equal_reads_is_zero(self):
        stats = ReplayStats(misses=10)
        assert effective_bandwidth_increase(stats, stats) == pytest.approx(0.0)

    def test_worse_candidate_is_negative(self):
        assert effective_bandwidth_increase(ReplayStats(misses=10), ReplayStats(misses=20)) < 0

    def test_zero_candidate_reads(self):
        assert effective_bandwidth_increase(ReplayStats(misses=0), ReplayStats(misses=0)) == pytest.approx(0.0)
        assert effective_bandwidth_increase(ReplayStats(misses=5), ReplayStats(misses=0)) == float("inf")
