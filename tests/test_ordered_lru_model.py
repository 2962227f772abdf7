"""Model-based equivalence: ``OrderedLRUCache`` (an ``OrderedDict``) vs ``LRUCache``.

The reference :class:`~repro.caching.lru.LRUCache` is the model.  Random
interleavings of every mutating operation of the ordered cache are applied to
both; after each step the evicted key, ``keys()`` order, ``len`` and the
eviction counter must agree.  The engine's walk inlines those operations on
the cache's ``OrderedDict``, so the same model also drives a no-prefetch
engine one lookup at a time (a fresh engine wherever the model is cleared).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.engine import BatchReplayEngine, OrderedLRUCache
from repro.caching.policies import CombinedPolicy, NoPrefetchPolicy
from repro.caching.replay import ReplayStats, replay_table_cache
from repro.nvm.block import BlockLayout
from tests.conftest import InspectableLRUCache

NUM_SLOTS = 96
#: Degenerate, tiny and mid-size caches.
CAPACITIES = (0, 1, 2, 7, 40)


class Pair:
    """The ordered cache and its reference model, driven in lockstep."""

    def __init__(self, capacity: int) -> None:
        self.ordered = OrderedLRUCache(capacity)
        self.model = InspectableLRUCache(capacity)

    # Each operation returns (what the ordered cache said, what the model said).
    def touch(self, key):
        """A demand lookup: promote on a hit, insert at the top on a miss."""
        if self.model.get(key):
            return key in self.ordered and self.ordered.insert(key) is None, True
        assert key not in self.ordered
        return self.ordered.insert(key), self.model.insert(key)

    def insert(self, key):
        """A top insert of a key that may or may not be resident."""
        return self.ordered.insert(key), self.model.insert(key)

    def clear(self):
        self.ordered.clear()
        self.model.clear()
        return None, None

    def check(self, outcome):
        ordered, model = self.ordered, self.model
        assert outcome[0] == outcome[1]
        assert ordered.keys() == model.keys()
        assert len(ordered) == len(model) <= ordered.capacity
        assert ordered.evictions == model.evictions
        for key in model.keys()[:3]:
            assert key in ordered


KEYS = st.integers(0, NUM_SLOTS - 1)
OPERATIONS = st.one_of(
    st.tuples(st.just("touch"), KEYS),
    st.tuples(st.just("insert"), KEYS),
    st.tuples(st.just("clear")),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CAPACITIES), st.lists(OPERATIONS, max_size=120))
def test_random_interleavings_match_the_reference(capacity, operations):
    pair = Pair(capacity)
    for name, *args in operations:
        pair.check(getattr(pair, name)(*args))


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_seeded_churn_matches_the_reference(capacity):
    """Long churn per capacity: hits, evictions and re-insertions all occur."""
    rng = np.random.default_rng(capacity)
    pair = Pair(capacity)
    hits = evictions = 0
    for step in range(1500):
        key = int(rng.integers(0, NUM_SLOTS))
        if step % 500 == 250:
            outcome = pair.clear()
        elif rng.integers(0, 4):
            outcome = pair.touch(key)
            hits += outcome[0] is True
        else:
            outcome = pair.insert(key)
        pair.check(outcome)
        evictions = max(evictions, pair.model.evictions)
    assert (hits > 0) == (evictions > 0) == (capacity > 0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CAPACITIES),
    st.lists(st.one_of(KEYS, st.none()), max_size=120),
)
def test_the_engines_inlined_walk_is_the_same_cache(capacity, lookups):
    """One ``replay_query`` per demand lookup (``None``: a fresh engine) ≡ the model."""

    def fresh_engine():
        return BatchReplayEngine(
            BlockLayout.identity(NUM_SLOTS, 8), NoPrefetchPolicy(), cache_size=capacity
        )

    engine = fresh_engine()
    model = InspectableLRUCache(capacity)
    hits = earlier_hits = 0
    for key in lookups:
        if key is None:
            earlier_hits += engine.stats.hits
            engine = fresh_engine()
            model.clear()
        elif model.get(key):
            hits += 1
            engine.replay_query(np.array([key], dtype=np.int64))
        else:
            model.insert(key)
            engine.replay_query(np.array([key], dtype=np.int64))
        assert engine.cache.keys() == model.keys()
        assert engine.cache.evictions == model.evictions
        assert earlier_hits + engine.stats.hits == hits


@pytest.mark.parametrize("position", [0.0, 0.7])
def test_combined_policy_across_a_mid_stream_swap_layout(position):
    """Shadow-filtered admissions, re-partitioned half-way ≡ reference.

    At position 0.7 (mixed top/interpolated admissions) only the reference
    loop replays the policy; the engine refuses it.
    """
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
        policy = CombinedPolicy(real_cache_size=30, position=position)
        model = InspectableLRUCache(cache_size)
        stats = ReplayStats(vector_bytes=128, block_bytes=per_block * 128)
        replay_table_cache(queries[:80], first, policy, cache=model, stats=stats)
        replay_table_cache(queries[80:], second, policy, cache=model, stats=stats)
        assert stats.prefetch_admitted > 0 and stats.evictions > 0

        fresh = CombinedPolicy(real_cache_size=30, position=position)
        if position > 0.0:
            with pytest.raises(ValueError, match="replay_table_cache"):
                BatchReplayEngine(first, fresh, cache_size=cache_size)
            continue
        engine = BatchReplayEngine(first, fresh, cache_size=cache_size)
        engine.replay(queries[:80])
        engine.swap_layout(second)
        engine.replay(queries[80:])
        # Prefetch-hit attribution is excluded: each reference call starts
        # with an empty pending-prefetch set, the engine carries it over.
        for field in ("lookups", "hits", "misses", "prefetch_admitted", "evictions"):
            assert getattr(engine.stats, field) == getattr(stats, field), (cache_size, field)
        assert engine.cache.keys() == model.keys(), cache_size
