"""The reference-vs-fast-path contract of the vectorized batch replay engine.

The batched engine (:mod:`repro.caching.engine`) must produce **bit-identical**
:class:`~repro.caching.replay.ReplayStats` counters — and the same final cache
contents in the same recency order — as the reference per-vector loop, for any
trace, layout, policy and cache size.  These tests sweep randomized traces
across all six policies and degenerate cache sizes to enforce that contract,
plus the ``LRUCache`` positional-insert edge cases the engine has to replicate.
"""

import numpy as np
import pytest

from repro.caching.engine import (
    ArrayLRUCache,
    BatchReplayEngine,
    replay_table_cache_batched,
    replay_table_cache_multi,
)
from repro.caching.lru import LRUCache
from repro.caching.miniature import MiniatureCacheTuner
from repro.caching.policies import (
    AccessThresholdPolicy,
    CacheAllBlockPolicy,
    CombinedPolicy,
    InsertAtPositionPolicy,
    NoPrefetchPolicy,
    PrefetchPolicy,
    ShadowAdmissionPolicy,
)
from repro.caching.replay import ReplayStats, replay_table_cache
from repro.nvm.block import BlockLayout
from repro.nvm.device import NVMDevice
from repro.workloads.trace import Trace


def counters(stats: ReplayStats):
    return stats.counters()


def random_workload(seed: int):
    """A random layout, trace and access counts exercising duplicates/skew."""
    rng = np.random.default_rng(seed)
    num_vectors = int(rng.integers(40, 400))
    vectors_per_block = int(rng.choice([4, 8, 32]))
    layout = BlockLayout(rng.permutation(num_vectors).astype(np.int64), vectors_per_block)
    queries = [
        (rng.integers(0, num_vectors, size=int(rng.integers(1, 12))) ** 2 % num_vectors)
        .astype(np.int64)
        for _ in range(120)
    ]
    access_counts = rng.integers(0, 30, size=num_vectors).astype(np.int64)
    return layout, queries, access_counts


POLICY_FACTORIES = {
    "no-prefetch": lambda counts: NoPrefetchPolicy(),
    "cache-all-block": lambda counts: CacheAllBlockPolicy(),
    "insert-at-position": lambda counts: InsertAtPositionPolicy(0.5),
    "insert-at-bottom": lambda counts: InsertAtPositionPolicy(1.0),
    "shadow-admission": lambda counts: ShadowAdmissionPolicy(
        real_cache_size=30, multiplier=1.5
    ),
    "combined": lambda counts: CombinedPolicy(real_cache_size=30, position=0.7),
    "access-threshold": lambda counts: AccessThresholdPolicy(counts, 10),
}

#: Cache sizes spanning unlimited, comfortable, block-sized, churning and
#: degenerate regimes (clipped to the table size per workload).
CACHE_SIZES = (None, 100, 48, 9, 3, 1, 0)


class TestEngineEquivalence:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_traces_all_cache_sizes(self, policy_name, seed):
        layout, queries, access_counts = random_workload(seed)
        factory = POLICY_FACTORIES[policy_name]
        for cache_size in CACHE_SIZES:
            if cache_size is not None and cache_size > layout.num_vectors:
                continue
            reference_cache = LRUCache(
                layout.num_vectors if cache_size is None else cache_size
            )
            reference = replay_table_cache(
                queries, layout, factory(access_counts), cache=reference_cache
            )
            engine = BatchReplayEngine(layout, factory(access_counts), cache_size=cache_size)
            batched = engine.replay(queries)
            assert counters(batched) == counters(reference), (policy_name, cache_size)
            # The cache contents and their recency order must match too, so
            # continued serving stays equivalent.
            assert engine.cache.keys() == reference_cache.keys(), (policy_name, cache_size)

    def test_continued_serving_across_calls(self):
        """Serving in many calls equals one reference replay of the stream.

        (Repeated *reference* calls are not the baseline here: the reference
        loop forgets its pending-prefetch set between calls, losing
        prefetch-hit attribution.  The engine carries that state, so online
        serving matches a single uninterrupted replay — the intended
        semantics.)
        """
        layout, queries, access_counts = random_workload(99)
        reference = replay_table_cache(
            queries, layout, AccessThresholdPolicy(access_counts, 5), cache_size=64
        )
        engine = BatchReplayEngine(
            layout, AccessThresholdPolicy(access_counts, 5), cache_size=64
        )
        for query in queries:  # one call per query, like BandanaStore.lookup
            engine.replay_query(query)
        assert counters(engine.stats) == counters(reference)

    def test_device_accounting_matches(self):
        layout, queries, _ = random_workload(7)
        ref_device = NVMDevice(num_blocks=layout.num_blocks)
        bat_device = NVMDevice(num_blocks=layout.num_blocks)
        reference = replay_table_cache(
            queries, layout, CacheAllBlockPolicy(), cache_size=32, device=ref_device
        )
        batched = replay_table_cache_batched(
            queries, layout, CacheAllBlockPolicy(), cache_size=32, device=bat_device
        )
        assert counters(batched) == counters(reference)
        assert batched.total_latency_us == reference.total_latency_us
        assert bat_device.blocks_read == ref_device.blocks_read

    def test_out_of_range_ids_rejected(self):
        layout = BlockLayout.identity(64, 32)
        engine = BatchReplayEngine(layout, NoPrefetchPolicy(), cache_size=8)
        with pytest.raises(IndexError):
            engine.replay_query(np.array([3, 64]))
        with pytest.raises(IndexError):
            engine.replay_query(np.array([-1]))

    def test_geometry_mismatch_rejected(self):
        layout = BlockLayout.identity(64, 32)
        stats = ReplayStats(vector_bytes=64, block_bytes=1024)
        with pytest.raises(ValueError):
            BatchReplayEngine(layout, NoPrefetchPolicy(), cache_size=8, stats=stats)

    def test_multi_replay_matches_individual_replays(self):
        layout, queries, access_counts = random_workload(3)
        thresholds = (0, 5, 12)
        policies = [NoPrefetchPolicy()] + [
            AccessThresholdPolicy(access_counts, t) for t in thresholds
        ]
        sizes = [40] * len(policies)
        multi = replay_table_cache_multi(queries, layout, policies, sizes)
        for policy, stats in zip(policies, multi):
            fresh = (
                NoPrefetchPolicy()
                if isinstance(policy, NoPrefetchPolicy)
                else AccessThresholdPolicy(access_counts, policy.threshold)
            )
            alone = replay_table_cache(queries, layout, fresh, cache_size=40)
            assert counters(stats) == counters(alone)

    def test_multi_replay_rejects_mismatched_lengths(self):
        layout = BlockLayout.identity(64, 32)
        with pytest.raises(ValueError):
            replay_table_cache_multi(
                [np.array([0])], layout, [NoPrefetchPolicy()], cache_sizes=[4, 8]
            )


class TestMiniatureTunerEquivalence:
    def test_single_pass_matches_reference_loop(self):
        layout, queries, access_counts = random_workload(11)
        trace = Trace(queries, num_vectors=layout.num_vectors)
        batched = MiniatureCacheTuner(
            sampling_rate=0.4, seed=2, thresholds=(0, 5, 12), use_batched_engine=True
        ).select_threshold(trace, layout, access_counts, cache_size=60)
        reference = MiniatureCacheTuner(
            sampling_rate=0.4, seed=2, thresholds=(0, 5, 12), use_batched_engine=False
        ).select_threshold(trace, layout, access_counts, cache_size=60)
        assert batched.threshold == reference.threshold
        assert batched.gains == reference.gains
        assert counters(batched.baseline_stats) == counters(reference.baseline_stats)
        for threshold in (0, 5, 12):
            assert counters(batched.per_threshold_stats[threshold]) == counters(
                reference.per_threshold_stats[threshold]
            )

    def test_hoisted_sampling_matches_per_size_runs(self):
        layout, queries, access_counts = random_workload(13)
        trace = Trace(queries, num_vectors=layout.num_vectors)
        tuner = MiniatureCacheTuner(sampling_rate=0.3, seed=1, thresholds=(0, 8))
        joint = tuner.select_thresholds_for_sizes(
            trace, layout, access_counts, cache_sizes=[40, 90]
        )
        for size in (40, 90):
            alone = tuner.select_threshold(trace, layout, access_counts, size)
            assert joint[size].threshold == alone.threshold
            assert joint[size].gains == alone.gains
            assert joint[size].miniature_cache_size == alone.miniature_cache_size


class TestArrayLRUCacheEdgeCases:
    """Positional-insert edge cases, mirrored against the reference LRUCache."""

    def test_capacity_zero_stores_nothing(self):
        reference = LRUCache(0)
        array = ArrayLRUCache(0, num_slots=8)
        assert reference.insert(1) is None
        assert array.insert_at(1, 0.0) is None
        for cache in (reference, array):
            assert len(cache) == 0
            assert 1 not in cache

    def test_capacity_one_positional_insert(self):
        reference = LRUCache(1)
        array = ArrayLRUCache(1, num_slots=8)
        for key, position in [(1, 0.0), (2, 1.0), (3, 0.5), (3, 0.0), (4, 1.0)]:
            assert reference.insert(key, position) == array.insert_at(key, position)
            assert reference.keys() == array.keys()

    def test_position_one_tie_breaking(self):
        """Bottom insertion lands strictly below the current LRU entry."""
        reference = LRUCache(4)
        array = ArrayLRUCache(4, num_slots=16)
        for cache, insert in ((reference, reference.insert), (array, array.insert_at)):
            insert(1, 0.0)
            insert(2, 0.0)
            insert(3, 1.0)  # below 1 and 2
            insert(4, 1.0)  # below 3
            assert cache.keys() == [2, 1, 3, 4]
        # Next eviction removes the most recent bottom insertion first.
        assert reference.insert(5, 0.0) == 4
        assert array.insert_at(5, 0.0) == 4

    def test_promote_batch_matches_sequential_gets(self):
        reference = LRUCache(6)
        array = ArrayLRUCache(6, num_slots=16)
        for key in (1, 2, 3):
            reference.insert(key)
            array.stamp_top(key)
        for key in (1, 3, 1):
            reference.get(key)
        array.promote_batch(np.array([1, 3, 1]))
        assert reference.keys() == array.keys()

    def test_eviction_counter(self):
        array = ArrayLRUCache(2, num_slots=8)
        array.insert_at(1, 0.0)
        array.insert_at(2, 0.0)
        array.insert_at(3, 0.0)
        assert array.evictions == 1
        array.clear()
        assert array.evictions == 0 and len(array) == 0

    def test_capacity_zero_positional_inserts_are_noops(self):
        reference = LRUCache(0)
        array = ArrayLRUCache(0, num_slots=8)
        for key, position in [(0, 0.0), (3, 1.0), (3, 0.5), (7, 0.0)]:
            assert reference.insert(key, position) is None
            assert array.insert_at(key, position) is None
        assert len(array) == 0 and array.evictions == 0
        assert array.keys() == reference.keys() == []

    def test_capacity_one_churn_matches_reference(self):
        """Every insert at capacity 1 evicts the sole resident, in lockstep."""
        reference = LRUCache(1)
        array = ArrayLRUCache(1, num_slots=16)
        rng = np.random.default_rng(0)
        for _ in range(200):
            key = int(rng.integers(0, 16))
            position = float(rng.choice([0.0, 0.3, 1.0]))
            assert reference.insert(key, position) == array.insert_at(key, position)
            assert reference.keys() == array.keys()
        assert array.evictions == reference.evictions > 0

    def test_reinsert_after_evict(self):
        """An evicted key must re-enter cleanly (no stale heap interference)."""
        reference = LRUCache(2)
        array = ArrayLRUCache(2, num_slots=8)
        for cache, insert in ((reference, reference.insert), (array, array.insert_at)):
            insert(1, 0.0)
            insert(2, 0.0)
            evicted = insert(3, 0.0)  # evicts 1
            assert evicted == 1
            assert insert(1, 0.0) == 2  # re-insert the evicted key, evicting 2
            assert cache.keys() == [1, 3]
        assert 1 in array and 2 not in array
        assert array.evictions == reference.evictions == 2

    def test_promote_batch_on_empty_cache(self):
        """An empty key batch is a no-op on an empty (or any) cache."""
        array = ArrayLRUCache(4, num_slots=8)
        array.promote_batch(np.empty(0, dtype=np.int64))
        assert len(array) == 0 and array.order_entries() == 0
        array.clear()
        array.promote_batch(np.empty(0, dtype=np.int64))
        assert array.keys() == []

    def test_compaction_keeps_heap_bounded_at_tiny_capacity(self):
        """Capacity 1: heavy churn must not grow the stamp log."""
        array = ArrayLRUCache(1, num_slots=4)
        for round_ in range(2000):
            array.insert_at(round_ % 4, 0.0)
        # Only one entry is live; compaction keeps the order structures
        # within a small multiple of _COMPACT_MIN.
        assert array.order_entries() <= 2 * ArrayLRUCache._COMPACT_MIN
        assert len(array) == 1 and array.evictions == 1999

    def test_compaction_noop_at_capacity_zero(self):
        """Capacity 0 stores nothing, so compaction finds nothing to keep."""
        array = ArrayLRUCache(0, num_slots=4)
        for round_ in range(500):
            array.insert_at(round_ % 4, 0.0)
        array._compact_log(0)
        assert array.order_entries() == 0 and len(array) == 0


class _FixedPositionPolicy(PrefetchPolicy):
    """Admits every candidate at one (possibly invalid) position."""

    def __init__(self, position, static):
        self.position = position
        self.admit_is_static = static

    def admit(self, vector_id):
        return self.position


class TestAdmissionPositionValidation:
    """Positions outside [0, 1] raise from both replay paths, never count."""

    LAYOUT = BlockLayout.identity(64, 8)
    QUERIES = [np.array([1, 9, 17, 2], dtype=np.int64)] * 30

    @pytest.mark.parametrize("position", [1.5, -0.25, float("inf")])
    @pytest.mark.parametrize("static", [True, False])
    def test_out_of_range_position_raises_like_the_reference(self, position, static):
        with pytest.raises(ValueError) as reference:
            replay_table_cache(
                self.QUERIES, self.LAYOUT, _FixedPositionPolicy(position, static), cache_size=16
            )
        with pytest.raises(ValueError) as batched:
            replay_table_cache_batched(
                self.QUERIES, self.LAYOUT, _FixedPositionPolicy(position, static), cache_size=16
            )
        assert str(batched.value) == str(reference.value)
        assert f"position must be in [0.0, 1.0], got {position!r}" == str(batched.value)

    @pytest.mark.parametrize("static", [True, False])
    def test_boundary_positions_are_accepted(self, static):
        for position in (0.0, 1.0):
            reference = replay_table_cache(
                self.QUERIES, self.LAYOUT, _FixedPositionPolicy(position, static), cache_size=16
            )
            batched = replay_table_cache_batched(
                self.QUERIES, self.LAYOUT, _FixedPositionPolicy(position, static), cache_size=16
            )
            assert counters(batched) == counters(reference)

    def test_insert_at_rejects_out_of_range_positions(self):
        array = ArrayLRUCache(4, num_slots=8)
        for position in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="position must be in"):
                array.insert_at(1, position)
        assert len(array) == 0 and array.order_entries() == 0


class TestStoreBatchedServing:
    """The store's batched serving path equals the reference serving path."""

    @staticmethod
    def _build_store(use_batched_engine):
        from repro.core.bandana import BandanaStore
        from repro.core.config import BandanaConfig
        from repro.workloads.trace import ModelTrace

        rng = np.random.default_rng(5)
        queries = [
            rng.integers(0, 512, size=int(rng.integers(2, 10))).astype(np.int64)
            for _ in range(80)
        ]
        train = ModelTrace({"alpha": Trace(queries, num_vectors=512)})
        config = BandanaConfig(
            partitioner="identity",
            total_cache_vectors=96,
            tune_thresholds=False,
            default_threshold=1.0,
            use_batched_engine=use_batched_engine,
        )
        eval_queries = [
            rng.integers(0, 512, size=int(rng.integers(2, 10))).astype(np.int64)
            for _ in range(80)
        ]
        return (
            BandanaStore.build(train, config, num_vectors={"alpha": 512}),
            ModelTrace({"alpha": Trace(eval_queries, num_vectors=512)}),
        )

    def test_simulate_store_matches_reference_path(self):
        from repro.simulation.runner import simulate_store

        batched_store, eval_trace = self._build_store(True)
        reference_store, _ = self._build_store(False)
        batched = simulate_store(batched_store, eval_trace)
        reference = simulate_store(reference_store, eval_trace)
        b = batched.per_table["alpha"].stats
        r = reference.per_table["alpha"].stats
        # Hit/miss/admission/eviction counters are engine-exact; the batched
        # path additionally keeps prefetch attribution across queries, which
        # repeated reference-loop calls forget (see engine docs).
        assert (b.lookups, b.hits, b.misses, b.prefetch_admitted, b.evictions) == (
            r.lookups, r.hits, r.misses, r.prefetch_admitted, r.evictions
        )
        assert batched.total_baseline_block_reads == reference.total_baseline_block_reads

    def test_lookup_batch_matches_per_query_lookups(self):
        store, eval_trace = self._build_store(True)
        queries = eval_trace["alpha"].queries
        store.lookup_batch("alpha", queries)
        batched = counters(store.tables["alpha"].stats)

        store.reset_serving_state()
        for query in queries:
            store.lookup("alpha", query)
        assert counters(store.tables["alpha"].stats) == batched


class TestLRUCacheHeapCompaction:
    def test_heap_stays_bounded_under_restamping(self):
        cache = LRUCache(16)
        for key in range(16):
            cache.insert(key)
        for round_ in range(2000):
            cache.get(round_ % 16)
        # Without compaction the heap would hold ~2016 entries.
        assert len(cache._heap) <= max(64, 4 * len(cache._priority)) + 1

    def test_compaction_preserves_eviction_order(self):
        compacted = LRUCache(8)
        for key in range(8):
            compacted.insert(key)
        for round_ in range(1000):
            compacted.get(round_ % 7)  # key 7 stays LRU
        assert compacted.insert(100) == 7

    def test_array_cache_heap_stays_bounded(self):
        array = ArrayLRUCache(16, num_slots=32)
        for key in range(16):
            array.stamp_top(key)
        for round_ in range(2000):
            array.promote_batch(np.arange(8))
        # 16k stamps were issued; compaction must keep the stamp log near the
        # live entry count (the amortised schedule allows a small multiple).
        assert array.order_entries() <= 256
