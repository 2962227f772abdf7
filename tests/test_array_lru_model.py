"""Model-based equivalence: ``ArrayLRUCache`` (stamp log + heap) vs ``LRUCache``.

The reference :class:`~repro.caching.lru.LRUCache` is the model.  Random
interleavings of every mutating operation of the array cache are applied to
both; after each step the evicted keys, ``keys()`` order, ``len``, the
eviction counter and the documented bound on the order structures' size must
agree.  A seeded churn run then checks that the interesting transitions (log
growth, log compaction, lazy order materialisation) really were exercised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.engine import ArrayLRUCache, BatchReplayEngine
from repro.caching.lru import LRUCache
from repro.caching.policies import CombinedPolicy
from repro.caching.replay import ReplayStats, replay_table_cache
from repro.nvm.block import BlockLayout

NUM_SLOTS = 96
#: Degenerate, tiny, mid-size and never-evicting (order untracked) caches.
CAPACITIES = (0, 1, 2, 7, 40, NUM_SLOTS, NUM_SLOTS + 24)
POSITIONS = (0.0, 0.25, 1.0)


class Pair:
    """The array cache and its reference model, driven in lockstep."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.array = ArrayLRUCache(capacity, NUM_SLOTS)
        self.model = LRUCache(capacity)

    # Each operation returns (evicted by the array cache, evicted by the model).
    def touch(self, key):
        """Demand insert at the top: evict if full, then ``stamp_top``."""
        if self.capacity == 0:
            return [self.array.insert_at(key, 0.0)], [self.model.insert(key)]
        evicted = None
        if key not in self.array and len(self.array) >= self.capacity:
            evicted = self.array._evict_one()
        self.array.stamp_top(key)
        return [evicted], [self.model.insert(key)]

    def insert(self, key, position):
        return [self.array.insert_at(key, position)], [self.model.insert(key, position)]

    def promote(self, picks):
        """``promote_batch`` over resident keys, duplicates included."""
        resident = self.model.keys()
        if not resident:
            return [], []
        keys = [resident[pick % len(resident)] for pick in picks]
        self.array.promote_batch(np.array(keys, dtype=np.int64))
        for key in keys:
            assert self.model.get(key)
        return [], []

    def _absent(self, keys):
        return [key for key in dict.fromkeys(keys) if key not in self.model]

    def bulk(self, keys):
        """``stamp_bulk`` of as many distinct absent keys as fit."""
        keys = self._absent(keys)[: max(self.capacity - len(self.model), 0)]
        self.array.stamp_bulk(np.array(keys, dtype=np.int64))
        return [None] * len(keys), [self.model.insert(key) for key in keys]

    def refill(self, keys):
        """Evict the oldest entries in bulk and stamp as many new ones.

        What the engine's evicting admission sweep does: ``peek_oldest`` then
        ``evict_peeked`` (one by one when the log cannot name the victims),
        then ``stamp_bulk``.
        """
        keys = self._absent(keys)[: self.capacity]
        if not keys or len(self.model) < self.capacity:
            return [], []
        peeked = self.array.peek_oldest(len(keys))
        if peeked is None:
            evicted = [self.array._evict_one() for _ in keys]
        else:
            _, victims, end = peeked
            self.array.evict_peeked(victims, end)
            evicted = victims.tolist()
        self.array.stamp_bulk(np.array(keys, dtype=np.int64))
        return evicted, [self.model.insert(key) for key in keys]

    def clear(self):
        self.array.clear()
        self.model.clear()
        return [], []

    def check(self, evicted):
        array, model = self.array, self.model
        assert evicted[0] == evicted[1]
        assert array.keys() == model.keys()
        assert len(array) == len(model)
        assert array.evictions == model.evictions
        # Documented bound: each of the two order structures holds at most
        # max(_COMPACT_MIN, 4 * len) entries.
        assert array.order_entries() <= 2 * max(ArrayLRUCache._COMPACT_MIN, 4 * len(array))
        # A non-destructive peek names the same victims the model would evict.
        k = min(3, len(model))
        peeked = array.peek_oldest(k) if k else None
        if peeked is not None:
            assert peeked[1].tolist() == model.keys()[::-1][:k]


KEYS = st.integers(0, NUM_SLOTS - 1)
OPERATIONS = st.one_of(
    st.tuples(st.just("touch"), KEYS),
    st.tuples(st.just("insert"), KEYS, st.sampled_from(POSITIONS)),
    # Both sides of promote_batch's scalar/vector split at n = 8.
    st.tuples(st.just("promote"), st.lists(st.integers(0, 10**6), min_size=1, max_size=7)),
    st.tuples(st.just("promote"), st.lists(st.integers(0, 10**6), min_size=8, max_size=40)),
    st.tuples(st.just("bulk"), st.lists(KEYS, min_size=1, max_size=24)),
    st.tuples(st.just("refill"), st.lists(KEYS, min_size=1, max_size=12)),
    st.tuples(st.just("clear")),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CAPACITIES), st.lists(OPERATIONS, max_size=120))
def test_random_interleavings_match_the_reference(capacity, operations):
    pair = Pair(capacity)
    for name, *args in operations:
        pair.check(getattr(pair, name)(*args))


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_seeded_churn_reaches_growth_compaction_and_materialisation(capacity):
    """Long churn per capacity; the structural transitions must have happened."""
    rng = np.random.default_rng(capacity)
    pair = Pair(capacity)
    tracked_at_start = pair.array._track_order
    grew = compacted = False
    for step in range(1500):
        choice = int(rng.integers(0, 10))
        keys = rng.integers(0, NUM_SLOTS, size=int(rng.integers(1, 30))).tolist()
        size_before, head_before = pair.array._log_key.size, pair.array._head
        if choice < 3:
            evicted = pair.touch(keys[0])
        elif choice < 6:
            evicted = pair.promote(keys)
        elif choice == 6:
            evicted = pair.bulk(keys)
        elif choice == 7:
            evicted = pair.refill(keys[:12])
        elif step % 50 == 49:  # interpolated inserts are rarer: they pin the heap
            evicted = pair.insert(keys[0], float(rng.choice(POSITIONS)))
        else:
            evicted = pair.touch(keys[0])
        pair.check(evicted)
        grew |= pair.array._log_key.size > size_before
        compacted |= pair.array._head < head_before
    if capacity == 40:
        assert grew and compacted
    if 0 < capacity < NUM_SLOTS:
        assert compacted
    if capacity >= NUM_SLOTS:
        # Order was untracked until the first interpolated insert asked for
        # the queue bottom, which materialised the log from the arrays.
        assert not tracked_at_start and pair.array._track_order


def test_hit_run_longer_than_the_cache_does_not_grow_the_log():
    """Only a key's last stamp is live, so a long run costs ``len`` entries."""
    array = ArrayLRUCache(16, NUM_SLOTS)
    array.stamp_bulk(np.arange(16, dtype=np.int64))
    array.promote_batch(np.tile(np.arange(16, dtype=np.int64), 600))
    assert array.order_entries() <= ArrayLRUCache._COMPACT_MIN
    assert array.keys() == list(range(15, -1, -1))


def test_combined_policy_across_a_mid_stream_swap_layout():
    """Mixed top/interpolated admissions, re-partitioned half-way ≡ reference."""
    rng = np.random.default_rng(21)
    num_vectors, per_block = 240, 8
    first = BlockLayout(rng.permutation(num_vectors).astype(np.int64), per_block)
    second = BlockLayout(rng.permutation(num_vectors).astype(np.int64), per_block)
    queries = [
        (rng.integers(0, num_vectors, size=int(rng.integers(1, 12))) ** 2 % num_vectors)
        .astype(np.int64)
        for _ in range(160)
    ]
    for cache_size in (6, 30, 90):
        policy = CombinedPolicy(real_cache_size=30, position=0.7)
        model = LRUCache(cache_size)
        stats = ReplayStats(vector_bytes=128, block_bytes=per_block * 128)
        replay_table_cache(queries[:80], first, policy, cache=model, stats=stats)
        replay_table_cache(queries[80:], second, policy, cache=model, stats=stats)

        engine = BatchReplayEngine(
            first, CombinedPolicy(real_cache_size=30, position=0.7), cache_size=cache_size
        )
        engine.replay(queries[:80])
        engine.swap_layout(second)
        engine.replay(queries[80:])
        # Prefetch-hit attribution is excluded: each reference call starts
        # with an empty pending-prefetch set, the engine carries it over.
        for field in ("lookups", "hits", "misses", "prefetch_admitted", "evictions"):
            assert getattr(engine.stats, field) == getattr(stats, field), (cache_size, field)
        assert engine.cache.keys() == model.keys(), cache_size
