"""Unit and property tests for the positional-insertion LRU cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.shadow import ShadowCache
from tests.conftest import InspectableLRUCache


class TestLRUCacheBasics:
    def test_insert_and_get(self):
        cache = InspectableLRUCache(2)
        cache.insert(1)
        assert cache.get(1)
        assert not cache.get(2)
        assert len(cache) == 1

    def test_eviction_order_is_lru(self):
        cache = InspectableLRUCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.get(1)          # 1 becomes MRU, 2 is now LRU
        evicted = cache.insert(3)
        assert evicted == 2
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_capacity_zero_stores_nothing(self):
        cache = InspectableLRUCache(0)
        assert cache.insert(1) is None
        assert len(cache) == 0
        assert not cache.get(1)

    def test_peek_does_not_promote(self):
        cache = InspectableLRUCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.peek(1)          # must NOT promote 1
        evicted = cache.insert(3)
        assert evicted == 1

    def test_reinsert_existing_does_not_evict(self):
        cache = InspectableLRUCache(2)
        cache.insert(1)
        cache.insert(2)
        assert cache.insert(1) is None
        assert len(cache) == 2

    def test_remove_and_clear(self):
        cache = InspectableLRUCache(3)
        cache.insert(1)
        assert cache.remove(1)
        assert not cache.remove(1)
        cache.insert(2)
        cache.clear()
        assert len(cache) == 0 and cache.evictions == 0

    def test_eviction_counter(self):
        cache = InspectableLRUCache(1)
        cache.insert(1)
        cache.insert(2)
        cache.insert(3)
        assert cache.evictions == 2

    def test_keys_ordered_most_recent_first(self):
        cache = InspectableLRUCache(3)
        cache.insert(1)
        cache.insert(2)
        cache.insert(3)
        cache.get(1)
        assert cache.keys()[0] == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            InspectableLRUCache(-1)

    def test_invalid_position_rejected(self):
        cache = InspectableLRUCache(2)
        with pytest.raises(ValueError):
            cache.insert(1, position=1.5)


class TestPositionalInsertion:
    def test_bottom_insertion_evicted_first(self):
        cache = InspectableLRUCache(3)
        cache.insert(1)
        cache.insert(2)
        cache.insert(3, position=1.0)    # straight to the LRU end
        evicted = cache.insert(4)
        assert evicted == 3

    def test_top_insertion_survives(self):
        cache = InspectableLRUCache(3)
        cache.insert(1)
        cache.insert(2)
        cache.insert(3, position=0.0)
        evicted = cache.insert(4)
        assert evicted == 1

    def test_middle_insertion_between_extremes(self):
        # A middle-position insert should outlive a bottom insert but not a
        # top insert when pressure arrives.
        cache = InspectableLRUCache(4)
        cache.insert(1)
        cache.insert(2)
        cache.insert(10, position=1.0)
        cache.insert(11, position=0.5)
        first_evicted = cache.insert(5)
        assert first_evicted == 10


class LRUReferenceModel:
    """Straightforward list-based LRU used as an oracle for property tests."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []  # most recent first

    def get(self, key):
        if key in self.items:
            self.items.remove(key)
            self.items.insert(0, key)
            return True
        return False

    def insert(self, key):
        if key in self.items:
            self.items.remove(key)
        elif len(self.items) >= self.capacity and self.capacity > 0:
            self.items.pop()
        if self.capacity > 0:
            self.items.insert(0, key)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    operations=st.lists(
        st.tuples(st.sampled_from(["get", "insert"]), st.integers(min_value=0, max_value=12)),
        max_size=200,
    ),
)
@settings(max_examples=60, deadline=None)
def test_lru_matches_reference_model(capacity, operations):
    """With only top-of-queue insertions, the cache must behave exactly like LRU."""
    cache = InspectableLRUCache(capacity)
    reference = LRUReferenceModel(capacity)
    for op, key in operations:
        if op == "get":
            assert cache.get(key) == reference.get(key)
        else:
            cache.insert(key, position=0.0)
            reference.insert(key)
        assert len(cache) == len(reference.items)
        assert set(cache.keys()) == set(reference.items)


@given(
    capacity=st.integers(min_value=1, max_value=10),
    keys=st.lists(st.integers(min_value=0, max_value=30), max_size=100),
    positions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=100),
)
@settings(max_examples=40, deadline=None)
def test_lru_never_exceeds_capacity(capacity, keys, positions):
    cache = InspectableLRUCache(capacity)
    for key, position in zip(keys, positions):
        cache.insert(key, position=position)
        assert len(cache) <= capacity


class TestShadowCache:
    def test_tracks_demand_accesses(self):
        shadow = ShadowCache(real_cache_size=2, multiplier=1.0)
        shadow.record_access(1)
        assert shadow.contains(1)
        assert not shadow.contains(2)

    def test_multiplier_scales_capacity(self):
        shadow = ShadowCache(real_cache_size=100, multiplier=1.5)
        assert shadow.capacity == 150

    def test_lru_behaviour(self):
        shadow = ShadowCache(real_cache_size=2, multiplier=1.0)
        shadow.record_access(1)
        shadow.record_access(2)
        shadow.record_access(3)
        assert not shadow.contains(1)
        assert shadow.contains(2) and shadow.contains(3)

    def test_clear(self):
        shadow = ShadowCache(2)
        shadow.record_access(1)
        shadow.clear()
        assert len(shadow) == 0
