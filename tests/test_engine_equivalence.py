"""The reference-vs-fast-path contract of the batch replay engine.

The batched engine (:mod:`repro.caching.engine`) must produce **bit-identical**
:class:`~repro.caching.replay.ReplayStats` counters — and the same final cache
contents in the same recency order — as the reference per-vector loop, for any
trace, layout, top-only policy and cache size, however the stream is cut into
calls.  These tests sweep randomized traces across every built-in policy that
admits at the top of the queue and every cache size from zero to more than
the table, check the store and the miniature-cache tuner against direct
reference-loop calls, check that a positional policy is refused by the engine
and replayed by the reference loop through ``simulate_table``, and pin the
counters of the shapes the benchmark drives (ledger entry ``engine_counters``,
captured from the stamp-log engine this one replaced).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.engine import (
    BatchReplayEngine,
    admits_only_at_top,
    replay_table_cache_batched,
    replay_table_cache_multi,
)
from repro.caching.lru import OrderedLRUCache
from repro.caching.miniature import MIN_MINIATURE_BLOCKS, MiniatureCacheTuner
from repro.caching.policies import (
    AccessThresholdPolicy,
    CacheAllBlockPolicy,
    CombinedPolicy,
    InsertAtPositionPolicy,
    NoPrefetchPolicy,
    PrefetchPolicy,
    ShadowAdmissionPolicy,
)
from repro.caching.replay import (
    ReplayStats,
    effective_bandwidth_increase,
    replay_table_cache,
)
from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig, TableCacheConfig
from repro.nvm.block import BlockLayout
from repro.nvm.latency import QUEUE_DEPTH, NVMLatencyModel
from repro.simulation import simulate_store
from repro.simulation.runner import simulate_table
from repro.utils.sampling import sample_queries_spatially
from repro.workloads.trace import ModelTrace, Trace
from tests.conftest import (
    POLICY_TABLES,
    InspectableLRUCache,
    build_store,
    drift_replay_case,
    golden,
    stage_chain,
    table1_replay_case,
)
from tests.conftest import counters as full_counters


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


#: Every built-in policy in a top-only configuration: what the engine replays.
POLICY_FACTORIES = {
    "no-prefetch": lambda counts: NoPrefetchPolicy(),
    "cache-all-block": lambda counts: CacheAllBlockPolicy(),
    "insert-at-top": lambda counts: InsertAtPositionPolicy(0.0),
    "shadow-admission": lambda counts: ShadowAdmissionPolicy(
        real_cache_size=30, multiplier=1.5
    ),
    "combined-at-top": lambda counts: CombinedPolicy(real_cache_size=30, position=0.0),
    "access-threshold": lambda counts: AccessThresholdPolicy(counts, 10),
}

#: Interpolated insert positions (Figure 11): only the reference loop replays them.
POSITIONAL_FACTORIES = {
    "insert-at-position": lambda counts: InsertAtPositionPolicy(0.5),
    "insert-at-bottom": lambda counts: InsertAtPositionPolicy(1.0),
    "combined": lambda counts: CombinedPolicy(real_cache_size=30, position=0.7),
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
            reference_cache = InspectableLRUCache(
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
        device = NVMLatencyModel()
        reference = replay_table_cache(
            queries, layout, CacheAllBlockPolicy(), cache_size=32, device=device
        )
        engine = BatchReplayEngine(layout, CacheAllBlockPolicy(), cache_size=32, device=device)
        batched = engine.replay(queries)
        assert counters(batched) == counters(reference)
        assert batched.total_latency_us == reference.total_latency_us

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


def small_workload(seed: int, vectors_per_block: int):
    """A small random layout, stream of queries and access counts."""
    rng = np.random.default_rng(seed)
    num_vectors = int(rng.integers(3 * vectors_per_block, 5 * vectors_per_block + 40))
    layout = BlockLayout(rng.permutation(num_vectors).astype(np.int64), vectors_per_block)
    queries = [
        (rng.integers(0, num_vectors, size=int(rng.integers(1, 10))) ** 2 % num_vectors)
        .astype(np.int64)
        for _ in range(int(rng.integers(1, 40)))
    ]
    return layout, queries, rng.integers(0, 30, size=num_vectors).astype(np.int64)


#: Cache sizes from empty through smaller than a block to more than the table.
CAPACITY_KINDS = {
    "zero": lambda n, per_block, pick: 0,
    "smaller-than-a-block": lambda n, per_block, pick: 1 + pick % (per_block - 1),
    "bounded": lambda n, per_block, pick: per_block + pick % (n - 1 - per_block),
    "all-but-one": lambda n, per_block, pick: n - 1,
    "all": lambda n, per_block, pick: n,
    "more-than-all": lambda n, per_block, pick: n + 24,
}


def cut(queries, points):
    """The concatenated stream re-cut at ``points`` (sorted, duplicates allowed)."""
    stream = np.concatenate(queries)
    edges = sorted(point % (stream.size + 1) for point in points)
    return [stream[a:b] for a, b in zip([0] + edges, edges + [stream.size])]


class TestEveryPolicyEveryCacheKind:
    """Hypothesis: every policy × every cache size × every way of cutting the stream."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        vectors_per_block=st.sampled_from([4, 8, 32]),
        policy_name=st.sampled_from(sorted(POLICY_FACTORIES)),
        kind=st.sampled_from(sorted(CAPACITY_KINDS)),
        pick=st.integers(0, 10**6),
        points=st.lists(st.integers(0, 10**6), max_size=12),
    )
    def test_counters_keys_and_call_granularity(
        self, seed, vectors_per_block, policy_name, kind, pick, points
    ):
        layout, queries, counts = small_workload(seed, vectors_per_block)
        capacity = CAPACITY_KINDS[kind](layout.num_vectors, vectors_per_block, pick)
        factory = POLICY_FACTORIES[policy_name]
        reference_cache = InspectableLRUCache(capacity)
        reference = replay_table_cache(queries, layout, factory(counts), cache=reference_cache)
        # One call, one call per query, and cuts anywhere (mid hit-run included).
        for calls in ([np.concatenate(queries)], queries, cut(queries, points)):
            engine = BatchReplayEngine(layout, factory(counts), cache_size=capacity)
            assert type(engine.cache) is OrderedLRUCache
            for ids in calls:
                engine.replay_query(ids)
            assert counters(engine.stats) == counters(reference), (policy_name, capacity)
            assert engine.cache.keys() == reference_cache.keys(), (policy_name, capacity)
            assert engine.cache.capacity == capacity
            assert engine.stats.evictions == reference_cache.evictions

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        policy_name=st.sampled_from(sorted(POLICY_FACTORIES)),
        kind=st.sampled_from(["smaller-than-a-block", "bounded", "all-but-one"]),
        pick=st.integers(0, 10**6),
        swap_at=st.integers(0, 39),
    )
    def test_swap_layout_mid_stream_on_a_bounded_top_only_cache(
        self, seed, policy_name, kind, pick, swap_at
    ):
        first, queries, counts = small_workload(seed, 8)
        second = BlockLayout(
            np.random.default_rng(seed + 1).permutation(first.num_vectors).astype(np.int64), 8
        )
        capacity = CAPACITY_KINDS[kind](first.num_vectors, 8, pick)
        swap_at %= len(queries) + 1
        policy = POLICY_FACTORIES[policy_name](counts)
        model = InspectableLRUCache(capacity)
        stats = ReplayStats(vector_bytes=128, block_bytes=8 * 128)
        replay_table_cache(queries[:swap_at], first, policy, cache=model, stats=stats)
        replay_table_cache(queries[swap_at:], second, policy, cache=model, stats=stats)

        engine = BatchReplayEngine(first, POLICY_FACTORIES[policy_name](counts), cache_size=capacity)
        engine.replay(queries[:swap_at])
        engine.swap_layout(second)
        engine.replay(queries[swap_at:])
        # Prefetch-hit attribution is excluded: each reference call starts
        # with an empty pending-prefetch set, the engine carries it over.
        for field in ("lookups", "hits", "misses", "prefetch_admitted", "evictions"):
            assert getattr(engine.stats, field) == getattr(stats, field), field
        assert engine.cache.keys() == model.keys()

    def test_demand_vector_evicted_by_its_own_prefetch_sweep(self):
        """The demand vector is excluded by identity, not by residency.

        Cache 3 under an 8-vector block: admitting slots 0–3 evicts the
        demand vector (slot 4) before its own slot is examined; it must not
        be re-admitted as a prefetch of itself.
        """
        layout = BlockLayout.identity(16, 8)
        engine = BatchReplayEngine(layout, CacheAllBlockPolicy(), cache_size=3)
        engine.replay_query(np.array([4], dtype=np.int64))
        reference_cache = InspectableLRUCache(3)
        reference = replay_table_cache(
            [np.array([4])], layout, CacheAllBlockPolicy(), cache=reference_cache
        )
        assert counters(engine.stats) == counters(reference) == (1, 0, 1, 7, 0, 4, 5)
        assert engine.cache.keys() == reference_cache.keys() == [7, 6, 5]


def unlimited_noprefetch_stats(queries, layout, vector_bytes=128):
    """Oracle: no prefetch and a cache that never evicts.

    Nothing is ever evicted, so a lookup misses exactly on the first
    occurrence of its id and hits on every later one.
    """
    ids = np.concatenate(queries) if queries else np.empty(0, dtype=np.int64)
    stats = ReplayStats(
        vector_bytes=vector_bytes, block_bytes=layout.vectors_per_block * vector_bytes
    )
    stats.lookups = int(ids.size)
    stats.misses = int(np.unique(ids).size)
    stats.hits = stats.lookups - stats.misses
    return stats


class TestMechanismRelations:
    """Relations between policies and cache sizes that hold on any trace."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        vectors_per_block=st.sampled_from([4, 8, 32]),
        headroom=st.integers(0, 40),
    )
    def test_unlimited_cache_without_prefetch_misses_on_first_occurrences(
        self, seed, vectors_per_block, headroom
    ):
        layout, queries, _ = small_workload(seed, vectors_per_block)
        capacity = layout.num_vectors + headroom
        oracle = unlimited_noprefetch_stats(queries, layout)
        reference = replay_table_cache(queries, layout, NoPrefetchPolicy(), cache_size=capacity)
        batched = replay_table_cache_batched(
            queries, layout, NoPrefetchPolicy(), cache_size=capacity
        )
        assert counters(reference) == counters(batched) == counters(oracle)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        vectors_per_block=st.sampled_from([4, 8, 32]),
        policy_name=st.sampled_from(sorted(POLICY_FACTORIES)),
        kind=st.sampled_from(sorted(CAPACITY_KINDS)),
        pick=st.integers(0, 10**6),
    )
    def test_nvm_time_is_one_read_price_per_demand_miss(
        self, seed, vectors_per_block, policy_name, kind, pick
    ):
        layout, queries, counts = small_workload(seed, vectors_per_block)
        capacity = CAPACITY_KINDS[kind](layout.num_vectors, vectors_per_block, pick)
        factory = POLICY_FACTORIES[policy_name]
        device = NVMLatencyModel()
        reference = replay_table_cache(
            queries, layout, factory(counts), cache_size=capacity,
            device=device,
        )
        engine = BatchReplayEngine(
            layout, factory(counts), cache_size=capacity, device=device
        )
        for ids in queries:
            engine.replay_query(ids)
        # ``misses`` sequential additions of one read's unloaded price.
        expected = 0.0
        for _ in range(reference.misses):
            expected += device.mean_latency_us(QUEUE_DEPTH)
        assert full_counters(engine.stats) == full_counters(reference)
        assert engine.stats.total_latency_us == reference.total_latency_us == expected

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        vectors_per_block=st.sampled_from([4, 8, 32]),
        kind=st.sampled_from(sorted(CAPACITY_KINDS)),
        pick=st.integers(0, 10**6),
        margin=st.integers(0, 5),
    )
    def test_threshold_at_or_above_every_count_is_no_prefetch(
        self, seed, vectors_per_block, kind, pick, margin
    ):
        layout, queries, counts = small_workload(seed, vectors_per_block)
        capacity = CAPACITY_KINDS[kind](layout.num_vectors, vectors_per_block, pick)
        threshold = int(counts.max()) + margin
        no_prefetch_cache, thresholded_cache = InspectableLRUCache(capacity), InspectableLRUCache(capacity)
        no_prefetch = replay_table_cache(
            queries, layout, NoPrefetchPolicy(), cache=no_prefetch_cache
        )
        thresholded = replay_table_cache(
            queries, layout, AccessThresholdPolicy(counts, threshold), cache=thresholded_cache
        )
        engine = BatchReplayEngine(
            layout, AccessThresholdPolicy(counts, threshold), cache_size=capacity
        )
        engine.replay(queries)
        assert counters(thresholded) == counters(engine.stats) == counters(no_prefetch)
        assert thresholded_cache.keys() == engine.cache.keys() == no_prefetch_cache.keys()


class _AdmitsFromTheNthAccess(PrefetchPolicy):
    """Stateful, scalar-only: rejects everything until it has seen ``n`` accesses."""

    def __init__(self, n, position):
        self.n = n
        self.position = position
        self.always_top_positions = position <= 0.0
        self.seen = 0

    def record_access(self, vector_id):
        self.seen += 1

    def admit(self, vector_id):
        return self.position if self.seen >= self.n else None


class TestStatefulPolicyWithinOneCall:
    @pytest.mark.parametrize(
        "position, cache_size", [(0.0, 16), (0.0, None), (0.5, 16), (0.5, None)]
    )
    def test_admit_flips_between_two_misses_of_one_call(self, position, cache_size):
        """The policy has seen every lookup up to *and including* the missing id.

        Lookups 1–3 miss while the policy still rejects; the 4th lookup is a
        hit, the 5th a miss whose own access is the one that flips ``admit``.
        At position 0.5 only the reference loop replays the policy.
        """
        layout = BlockLayout.identity(64, 8)
        ids = np.array([0, 8, 16, 8, 24, 25, 1, 32, 0], dtype=np.int64)
        reference_cache = InspectableLRUCache(64 if cache_size is None else cache_size)
        reference = replay_table_cache(
            [ids], layout, _AdmitsFromTheNthAccess(5, position), cache=reference_cache
        )
        assert reference.prefetch_admitted > 0 and reference.prefetch_hits > 0
        if position > 0.0:
            return
        engine = BatchReplayEngine(
            layout, _AdmitsFromTheNthAccess(5, position), cache_size=cache_size
        )
        engine.replay_query(ids)
        assert counters(engine.stats) == counters(reference)
        assert engine.cache.keys() == reference_cache.keys()
        assert engine.policy.seen == ids.size


class TestStaleAdmissionCache:
    def test_retune_reaches_a_warm_engine(self):
        """Re-steering admissions mid-stream ≡ the reference loop.

        The engine caches static admission decisions per block; it used to
        keep serving them after the counts changed — (1200, 147, 1053) here —
        until the next ``swap_layout`` happened to clear the cache.
        """
        rng = np.random.default_rng(0)
        layout = BlockLayout(rng.permutation(256).astype(np.int64), 8)
        counts = rng.integers(0, 6, size=256).astype(np.int64)
        queries = [rng.integers(0, 256, size=20).astype(np.int64) for _ in range(60)]

        policy = AccessThresholdPolicy(counts.copy(), 2)
        model = InspectableLRUCache(32)
        stats = ReplayStats(vector_bytes=128, block_bytes=8 * 128)
        replay_table_cache(queries[:30], layout, policy, cache=model, stats=stats)
        policy.retune(access_counts=5 - counts)
        replay_table_cache(queries[30:], layout, policy, cache=model, stats=stats)
        assert (stats.lookups, stats.hits, stats.misses) == (1200, 131, 1069)

        engine = BatchReplayEngine(layout, AccessThresholdPolicy(counts.copy(), 2), cache_size=32)
        engine.replay(queries[:30])
        engine.policy.retune(access_counts=5 - counts)
        engine.replay(queries[30:])
        assert (engine.stats.lookups, engine.stats.hits, engine.stats.misses) == (1200, 131, 1069)
        assert engine.cache.keys() == model.keys()

    def test_retune_validates_and_bumps_the_version(self):
        policy = AccessThresholdPolicy(np.arange(8), 2)
        version = policy.admit_version
        policy.retune(threshold=5)
        assert (policy.threshold, policy.admit_version) == (5.0, version + 1)
        with pytest.raises(ValueError):
            policy.retune(threshold=-1)
        with pytest.raises(ValueError):
            policy.retune(access_counts=np.zeros((2, 2)))
        assert (policy.threshold, policy.admit_version) == (5.0, version + 1)
        assert NoPrefetchPolicy().admit_version == PrefetchPolicy.admit_version


class TestPositionalPolicies:
    """Interpolated insert positions: refused by the engine, replayed by the reference."""

    LAYOUT = BlockLayout.identity(64, 8)
    QUERIES = [np.array([1, 9, 17, 2], dtype=np.int64)] * 5

    @pytest.mark.parametrize("policy_name", sorted(POSITIONAL_FACTORIES))
    def test_every_engine_entry_point_raises_before_counting(self, policy_name):
        make = POSITIONAL_FACTORIES[policy_name]
        assert not admits_only_at_top(make(None))
        stats = ReplayStats(vector_bytes=128, block_bytes=8 * 128)
        bystander = ShadowAdmissionPolicy(real_cache_size=30)
        calls = (
            lambda policy: BatchReplayEngine(self.LAYOUT, policy, cache_size=16, stats=stats),
            lambda policy: replay_table_cache_batched(
                self.QUERIES, self.LAYOUT, policy, cache_size=16
            ),
            lambda policy: replay_table_cache_multi(
                self.QUERIES, self.LAYOUT, [bystander, policy], [16, 16]
            ),
        )
        for call in calls:
            policy = make(None)
            with pytest.raises(ValueError, match="replay_table_cache"):
                call(policy)
            assert full_counters(stats) == (0,) * 7 + (0.0,)
            assert getattr(policy, "shadow", bystander.shadow).keys() == bystander.shadow.keys() == []

    @pytest.mark.parametrize("policy_name", sorted(POSITIONAL_FACTORIES))
    @pytest.mark.parametrize("seed", range(3))
    def test_simulate_table_is_the_reference_loop(self, policy_name, seed):
        layout, queries, counts = random_workload(seed)
        trace = Trace(queries, num_vectors=layout.num_vectors)
        make = POSITIONAL_FACTORIES[policy_name]
        for cache_size in (None, 48, 9, 1, 0):
            result = simulate_table(trace, layout, make(counts), cache_size=cache_size)
            reference = replay_table_cache(queries, layout, make(counts), cache_size=cache_size)
            baseline = replay_table_cache(
                queries, layout, NoPrefetchPolicy(), cache_size=cache_size
            )
            assert counters(result.stats) == counters(reference), cache_size
            assert counters(result.baseline_stats) == counters(baseline), cache_size


class TestSizesAreExactIntegers:
    """Cache and vector sizes are counts: a non-integer raises, nothing is truncated."""

    LAYOUT = BlockLayout.identity(64, 8)
    QUERIES = [np.array([1, 9, 17, 2], dtype=np.int64)] * 5
    NOT_INTEGERS = [2.5, True, "3", np.float64(3.7), 3.0]

    @pytest.mark.parametrize("size", NOT_INTEGERS)
    def test_cache_size(self, size):
        stats = ReplayStats(vector_bytes=128, block_bytes=8 * 128)
        policy = ShadowAdmissionPolicy(real_cache_size=30)
        calls = (
            lambda: BatchReplayEngine(self.LAYOUT, policy, cache_size=size, stats=stats),
            lambda: replay_table_cache_batched(self.QUERIES, self.LAYOUT, policy, cache_size=size),
            lambda: replay_table_cache(
                self.QUERIES, self.LAYOUT, policy, cache_size=size, stats=stats
            ),
            lambda: replay_table_cache_multi(
                self.QUERIES, self.LAYOUT, [policy, policy], [16, size]
            ),
            lambda: MiniatureCacheTuner((0,), sampling_rate=1.0).select_threshold(
                Trace(self.QUERIES, num_vectors=64), self.LAYOUT, np.zeros(64), size
            ),
        )
        for call in calls:
            with pytest.raises(TypeError, match="cache_size must be an integer"):
                call()
            assert full_counters(stats) == (0,) * 7 + (0.0,)
            assert policy.shadow.keys() == []

    @pytest.mark.parametrize("size", [-1, -16])
    def test_negative_cache_size(self, size):
        stats = ReplayStats(vector_bytes=128, block_bytes=8 * 128)
        for call in (
            lambda: BatchReplayEngine(self.LAYOUT, NoPrefetchPolicy(), cache_size=size),
            lambda: replay_table_cache(
                self.QUERIES, self.LAYOUT, NoPrefetchPolicy(), cache_size=size, stats=stats
            ),
        ):
            with pytest.raises(ValueError, match="cache_size must be >= 0"):
                call()
        assert full_counters(stats) == (0,) * 7 + (0.0,)

    @pytest.mark.parametrize("vector_bytes", [128.5, True, np.float64(128.0)])
    def test_vector_bytes(self, vector_bytes):
        policy = ShadowAdmissionPolicy(real_cache_size=30)
        for call in (
            lambda: BatchReplayEngine(self.LAYOUT, policy, vector_bytes=vector_bytes),
            lambda: replay_table_cache(
                self.QUERIES, self.LAYOUT, policy, vector_bytes=vector_bytes
            ),
            lambda: replay_table_cache_multi(
                self.QUERIES, self.LAYOUT, [policy], [16], vector_bytes=vector_bytes
            ),
            lambda: MiniatureCacheTuner((0,), vector_bytes=vector_bytes),
        ):
            with pytest.raises(TypeError, match="vector_bytes must be an integer"):
                call()
            assert policy.shadow.keys() == []

    def test_integer_types_are_accepted(self):
        for size in (16, np.int64(16), np.int32(16)):
            engine = BatchReplayEngine(
                self.LAYOUT, NoPrefetchPolicy(), cache_size=size, vector_bytes=np.int64(64)
            )
            assert (engine.cache.capacity, engine.stats.block_bytes) == (16, 8 * 64)
            assert type(engine.cache.capacity) is int


class TestHostileIds:
    """Ids that are not a 1-D integer sequence raise before anything is counted."""

    LAYOUT = BlockLayout.identity(64, 8)
    HOSTILE = [
        ([1.7, 2.2], TypeError),
        (np.array([1.0, 2.0]), TypeError),
        ([True, False], TypeError),
        (["3"], TypeError),
        (np.array([[1, 2], [3, 4]]), ValueError),
    ]

    @pytest.mark.parametrize("ids, error", HOSTILE)
    def test_engine_and_reference_raise_the_same_typed_error(self, ids, error):
        engine = BatchReplayEngine(
            self.LAYOUT, CacheAllBlockPolicy(), cache_size=16, device=NVMLatencyModel()
        )
        good = np.array([1, 2], dtype=np.int64)
        calls = (
            lambda: engine.replay_query(ids),
            lambda: engine.replay([good, ids]),
            lambda: replay_table_cache_multi([good, ids], self.LAYOUT, [engine.policy], [16]),
        )
        for call in calls:
            with pytest.raises(error) as raised:
                call()
            assert full_counters(engine.stats) == (0,) * 7 + (0.0,)
            assert engine.cache.keys() == []
        with pytest.raises(error) as reference:
            replay_table_cache([ids], self.LAYOUT, CacheAllBlockPolicy(), cache_size=16)
        assert str(reference.value) == str(raised.value)

    def test_validate_false_still_skips_the_checks(self):
        engine = BatchReplayEngine(self.LAYOUT, NoPrefetchPolicy(), cache_size=16)
        engine.replay_query(np.array([1.7, 2.2]), validate=False)  # the caller's promise
        assert engine.stats.lookups == 2

    @pytest.mark.parametrize("ids, error", HOSTILE)
    def test_store_lookups_reject_them_too(self, ids, error):
        store, _ = TestStoreBatchedServing._build_store()
        with pytest.raises(error) as reference:
            replay_table_cache([ids], store.tables["alpha"].layout, NoPrefetchPolicy())
        for call in (
            lambda: store.lookup("alpha", ids),
            lambda: store.lookup_batch("alpha", [np.array([1, 2]), ids]),
            lambda: store.lookup_request({"alpha": ids}),
        ):
            with pytest.raises(error) as raised:
                call()
            assert str(raised.value) == str(reference.value)
            assert store.tables["alpha"].stats.lookups == 0
            assert store.aggregate_stats().block_reads == 0


class TestMiniatureTunerEquivalence:
    THRESHOLDS = (0, 5, 12)

    def assert_matches_per_policy_replays(self, selection, queries, layout, counts, size):
        """Every counter is one reference replay per policy at ``size``."""
        baseline = replay_table_cache(queries, layout, NoPrefetchPolicy(), cache_size=size)
        assert counters(selection.baseline_stats) == counters(baseline)
        gains = {}
        for threshold in self.THRESHOLDS:
            alone = replay_table_cache(
                queries, layout, AccessThresholdPolicy(counts, threshold), cache_size=size
            )
            assert counters(selection.per_threshold_stats[threshold]) == counters(alone)
            gains[threshold] = effective_bandwidth_increase(baseline, alone)
        assert selection.gains == gains
        # The first threshold with the largest gain wins.
        assert selection.threshold == max(gains, key=lambda t: (gains[t], -t))

    def test_single_pass_matches_reference_loop(self):
        layout, queries, access_counts = random_workload(11)
        trace = Trace(queries, num_vectors=layout.num_vectors)
        selection = MiniatureCacheTuner(
            sampling_rate=0.4, seed=2, thresholds=self.THRESHOLDS
        ).select_threshold(trace, layout, access_counts, cache_size=60)
        # 0.4 of 60 vectors is under the floor of 8 blocks of 4: the tuner
        # samples whole blocks at the rate that keeps 32 vectors of cache.
        assert layout.vectors_per_block == 4
        rate = MIN_MINIATURE_BLOCKS * 4 / 60
        assert selection.sampling_rate == rate
        sampled = sample_queries_spatially(trace.queries, layout, rate, seed=2)
        assert selection.miniature_cache_size == 32
        self.assert_matches_per_policy_replays(
            selection, sampled, layout, access_counts, 32
        )

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_sampling_rate_one_is_the_full_cache(self, seed):
        layout, queries, access_counts = random_workload(seed)
        trace = Trace(queries, num_vectors=layout.num_vectors)
        size = layout.num_vectors // 3
        selection = MiniatureCacheTuner(
            sampling_rate=1.0, thresholds=self.THRESHOLDS
        ).select_threshold(trace, layout, access_counts, cache_size=size)
        assert selection.miniature_cache_size == size
        self.assert_matches_per_policy_replays(
            selection, queries, layout, access_counts, size
        )


class _FixedPositionPolicy(PrefetchPolicy):
    """Admits every candidate at one (possibly invalid) position.

    Only an interpolated position (in ``(0, 1]``) is declared as such, so an
    out-of-range one reaches the engine's own range check.
    """

    def __init__(self, position, static):
        self.position = position
        self.admit_is_static = static
        self.always_top_positions = not 0.0 < position <= 1.0

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
        """Position 0 replays on the engine, position 1 on the reference loop."""
        trace = Trace(self.QUERIES, num_vectors=self.LAYOUT.num_vectors)
        for position in (0.0, 1.0):
            reference = replay_table_cache(
                self.QUERIES, self.LAYOUT, _FixedPositionPolicy(position, static), cache_size=16
            )
            simulated = simulate_table(
                trace, self.LAYOUT, _FixedPositionPolicy(position, static), cache_size=16
            )
            assert counters(simulated.stats) == counters(reference)


class TestStoreBatchedServing:
    """The store's serving engines equal direct reference-loop replays."""

    @staticmethod
    def _build_store():
        rng = np.random.default_rng(5)
        queries = [
            rng.integers(0, 512, size=int(rng.integers(2, 10))).astype(np.int64)
            for _ in range(80)
        ]
        train = ModelTrace({"alpha": Trace(queries, num_vectors=512)})
        config = BandanaConfig(
            total_cache_vectors=96,
            tune_thresholds=False,
            default_threshold=1.0,
        )
        eval_queries = [
            rng.integers(0, 512, size=int(rng.integers(2, 10))).astype(np.int64)
            for _ in range(80)
        ]
        return (
            BandanaStore.build(train, config, num_vectors={"alpha": 512}),
            ModelTrace({"alpha": Trace(eval_queries, num_vectors=512)}),
        )

    def test_simulate_store_matches_reference_loop(self):
        store, eval_trace = self._build_store()
        result = simulate_store(store, eval_trace)
        state = store.tables["alpha"]
        queries = eval_trace["alpha"].queries
        size = state.cache_config.cache_size_vectors
        reference_cache = InspectableLRUCache(size)
        # One uninterrupted reference replay: the engine carries prefetch
        # attribution across calls, so every counter is exact.
        reference = replay_table_cache(
            queries,
            state.layout,
            AccessThresholdPolicy(state.access_counts, state.cache_config.threshold),
            cache=reference_cache,
            device=NVMLatencyModel(block_bytes=store.config.block_bytes),
        )
        stats = result.per_table["alpha"].stats
        assert full_counters(stats) == full_counters(reference)
        assert state.engine.cache.keys() == reference_cache.keys()
        baseline = replay_table_cache(
            queries, state.layout, NoPrefetchPolicy(), cache_size=size
        )
        assert counters(result.per_table["alpha"].baseline_stats) == counters(baseline)
        assert store.baseline_block_reads(eval_trace) == baseline.block_reads

    def test_lookup_batch_matches_per_query_lookups(self):
        store, eval_trace = self._build_store()
        queries = eval_trace["alpha"].queries
        store.lookup_batch("alpha", queries)
        batched = counters(store.tables["alpha"].stats)

        store.reset_serving_state()
        for query in queries:
            store.lookup("alpha", query)
        assert counters(store.tables["alpha"].stats) == batched


def reference_store_replay(store, trace):
    """One uninterrupted reference-loop replay per table of ``store``.

    Each table replays ``trace`` with a fresh copy of its policy, its cache
    size and the store's latency model.  Returns ``{name: (stats, cache)}``.
    """
    out = {}
    for name, table_trace in trace.items():
        state = store.tables[name]
        cache = InspectableLRUCache(state.cache_config.cache_size_vectors)
        stats = replay_table_cache(
            table_trace.queries,
            state.layout,
            POLICY_TABLES[name][0](state.access_counts),
            cache=cache,
            vector_bytes=store.config.vector_bytes,
            device=NVMLatencyModel(block_bytes=store.config.block_bytes),
        )
        out[name] = (stats, cache)
    return out


def assert_store_matches_reference(store, trace):
    """Every table's counters (NVM time included) and cache order ≡ the reference loop."""
    for name, (stats, cache) in reference_store_replay(store, trace).items():
        state = store.tables[name]
        assert full_counters(state.stats) == full_counters(stats), name
        assert state.engine.cache.keys() == cache.keys(), name


class TestStoreReplayPaths:
    """Every way of serving a multi-table store ≡ the reference loop per table.

    :func:`~tests.conftest.build_store` puts all six policies and degenerate
    cache sizes side by side; whether the trace is replayed table by table,
    request by request or in chunks, each table must end in the state of one
    uninterrupted reference replay of its own queries.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_simulate_store_matches_reference_loop(self, seed):
        store, trace = build_store(seed)
        result = simulate_store(store, trace)
        assert_store_matches_reference(store, trace)
        for name, table_trace in trace.items():
            state = store.tables[name]
            baseline = replay_table_cache(
                table_trace.queries,
                state.layout,
                NoPrefetchPolicy(),
                cache_size=state.cache_config.cache_size_vectors,
                vector_bytes=store.config.vector_bytes,
            )
            assert counters(result.per_table[name].baseline_stats) == counters(baseline)

    @pytest.mark.parametrize("seed", range(4))
    def test_lookup_request_stream_matches_reference_loop(self, seed):
        store, trace = build_store(seed)
        for request in trace.requests():
            assert store.lookup_request(request) == dict.fromkeys(request)
        assert_store_matches_reference(store, trace)

    @pytest.mark.parametrize("chunk_queries", [1, 3, 1000])
    def test_lookup_batch_chunks_match_reference_loop(self, chunk_queries):
        store, trace = build_store(6)
        for name, table_trace in trace.items():
            queries = table_trace.queries
            for start in range(0, len(queries), chunk_queries):
                store.lookup_batch(name, queries[start : start + chunk_queries])
        assert_store_matches_reference(store, trace)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_warm_continuation_matches_one_uninterrupted_replay(self, seed):
        """A second simulation without reset continues where the first ended."""
        store, trace = build_store(seed)
        simulate_store(store, trace)
        simulate_store(store, trace, reset_first=False)
        twice = ModelTrace(
            {
                name: Trace(table_trace.queries * 2, num_vectors=table_trace.num_vectors)
                for name, table_trace in trace.items()
            }
        )
        assert_store_matches_reference(store, twice)

    def test_reset_serving_state_replays_identically(self):
        store, trace = build_store(8)
        requests = list(trace.requests())
        for request in requests:
            store.lookup_request(request)
        first = {name: full_counters(store.tables[name].stats) for name in trace}
        store.reset_serving_state()
        assert store.aggregate_stats().lookups == 0
        assert store.aggregate_stats().block_reads == 0
        for request in requests:
            store.lookup_request(request)
        assert {name: full_counters(store.tables[name].stats) for name in trace} == first

    @pytest.mark.parametrize("seed", [0, 1])
    def test_result_totals_agree_with_the_store(self, seed):
        store, trace = build_store(seed)
        result = simulate_store(store, trace)
        aggregate = store.aggregate_stats()
        assert result.total_block_reads == aggregate.block_reads
        assert result.aggregate_hit_rate == aggregate.hits / aggregate.lookups
        assert result.total_baseline_block_reads == store.baseline_block_reads(trace)
        assert result.bandwidth_increase == (
            result.total_baseline_block_reads / result.total_block_reads - 1.0
        )


class TestStoreBaselineBlockReads:
    """``BandanaStore.baseline_block_reads``: the no-prefetch side of every comparison."""

    @pytest.mark.parametrize("seed", [2, 3])
    def test_matches_reference_loop_and_leaves_serving_state_alone(self, seed):
        store, trace = build_store(seed)
        expected = sum(
            replay_table_cache(
                table_trace.queries,
                store.tables[name].layout,
                NoPrefetchPolicy(),
                cache_size=store.tables[name].cache_config.cache_size_vectors,
            ).block_reads
            for name, table_trace in trace.items()
        )
        assert store.baseline_block_reads(trace) == expected
        assert store.aggregate_stats().lookups == 0
        assert store.aggregate_stats().block_reads == 0
        assert all(state.engine is None for state in store.tables.values())

    @pytest.mark.parametrize("seed", [4, 5])
    def test_unlimited_cache_reads_one_block_per_distinct_id(self, seed):
        store, trace = build_store(seed)
        for state in store.tables.values():
            state.cache_config = TableCacheConfig(
                cache_size_vectors=state.layout.num_vectors
            )
        expected = sum(
            unlimited_noprefetch_stats(table_trace.queries, store.tables[name].layout).misses
            for name, table_trace in trace.items()
        )
        assert store.baseline_block_reads(trace) == expected

    def test_empty_trace_reads_nothing(self):
        store, _ = build_store(0)
        assert store.baseline_block_reads(ModelTrace({})) == 0
        num_vectors = store.tables["t-noprefetch"].layout.num_vectors
        empty = ModelTrace({"t-noprefetch": Trace([], num_vectors=num_vectors)})
        assert store.baseline_block_reads(empty) == 0

    def test_out_of_range_ids_rejected(self):
        store, _ = build_store(0)
        num_vectors = store.tables["t-noprefetch"].layout.num_vectors
        with pytest.raises(IndexError):
            store.baseline_block_reads(
                ModelTrace({"t-noprefetch": Trace([[0, num_vectors]])})
            )


class TestLRUCacheHeapCompaction:
    def test_heap_stays_bounded_under_restamping(self):
        cache = InspectableLRUCache(16)
        for key in range(16):
            cache.insert(key)
        for round_ in range(2000):
            cache.get(round_ % 16)
        # Without compaction the heap would hold ~2016 entries.
        assert len(cache._heap) <= max(64, 4 * len(cache._priority)) + 1

    def test_compaction_preserves_eviction_order(self):
        compacted = InspectableLRUCache(8)
        for key in range(8):
            compacted.insert(key)
        for round_ in range(1000):
            compacted.get(round_ % 7)  # key 7 stays LRU
        assert compacted.insert(100) == 7


# --------------------------------------------------------------------- goldens
def _digest(stats, keys, queries, layout, counts, cache):
    """The stage chain of one replay: its queries, layout, access counts and
    (cache size, threshold), then its counters and final cache keys."""
    trace = Trace(queries, num_vectors=layout.num_vectors)
    return {
        **stage_chain([trace], [layout.order], [counts], [cache]),
        "counters": list(full_counters(stats)),
        "keys_sha256": hashlib.sha256(np.array(keys, dtype="<i8").tobytes()).hexdigest(),
    }


def golden_engine_counters():
    """Replay the shapes the benchmark drives; counters and cache order of each.

    Captured from the stamp-log ``ArrayLRUCache`` engine this one replaced,
    but for two re-pins: the device entry's NVM time (Fig. 2's law refit) and
    the tuned row (the tuner picks 10, not 20, since miniature caches sample
    whole blocks; the row equals the reference loop's replay at 10).
    """
    out = {}
    # drift-repartition's region: miss-heavy, one replay_query per query, a device.
    layout, counts, queries = drift_replay_case()
    engine = BatchReplayEngine(
        layout,
        AccessThresholdPolicy(counts, 2),
        cache_size=512,
        device=NVMLatencyModel(),
    )
    for query in queries:
        engine.replay_query(query)
    out["drift-4096/cache-512/threshold-2/per-query/device"] = _digest(
        engine.stats, engine.cache.keys(), queries, layout, counts, (512, 2)
    )

    # offline-pipeline / serve-host: table1 at 1/2000, one stream per engine.
    layout, counts, queries = table1_replay_case()
    cache_size = layout.num_vectors // 20
    tuning = Trace(queries, num_vectors=layout.num_vectors)
    threshold = (
        MiniatureCacheTuner((0, 5, 10, 15, 20), sampling_rate=0.25, seed=3)
        .select_threshold(tuning, layout, counts, cache_size)
        .threshold
    )
    for name, policy, cache in (
        (
            f"table1/bounded/tuned-threshold-{threshold:g}",
            AccessThresholdPolicy(counts, threshold),
            (cache_size, threshold),
        ),
        ("table1/unlimited/cache-all-block", CacheAllBlockPolicy(), (None, None)),
    ):
        engine = BatchReplayEngine(layout, policy, cache_size=cache[0])
        engine.replay(queries)
        out[name] = _digest(engine.stats, engine.cache.keys(), queries, layout, counts, cache)

    # An interpolated position: simulate_table's reference-loop route (the
    # keys come from the same replay with its cache kept).
    stats = simulate_table(tuning, layout, InsertAtPositionPolicy(0.5), cache_size=cache_size).stats
    cache = InspectableLRUCache(cache_size)
    replay_table_cache(queries, layout, InsertAtPositionPolicy(0.5), cache=cache)
    out["table1/bounded/insert-at-0.5"] = _digest(
        stats, cache.keys(), queries, layout, counts, (cache_size, None)
    )
    return out


def test_golden_engine_counters():
    golden("engine_counters")
