"""An LRU cache that supports insertion at an arbitrary queue position.

The paper's Figure 11a experiments with inserting prefetched vectors not at
the top (MRU end) of the eviction queue but part-way down, so they age out
quickly unless they are actually used.  A textbook ``OrderedDict`` LRU cannot
do that cheaply, so this implementation keys every resident entry with a
*recency priority*: an access stamps the entry with a fresh maximal priority,
while an insertion at position ``p`` (0 = MRU top, 1 = LRU bottom) receives a
priority interpolated between the current top and bottom of the queue.
Eviction removes the minimum-priority entry using a lazy-deletion heap, so all
operations are ``O(log n)`` amortised.  Stale heap entries (left behind by
re-stamping) are compacted away once they outnumber the live entries, so the
heap's memory stays proportional to the number of resident keys even over
arbitrarily long replays.

:class:`OrderedLRUCache` is the same queue restricted to top insertions, where
LRU order is insertion order and an ``OrderedDict`` suffices: the batch
engine's cache and the shadow of the shadow-admission policies.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.utils.validation import check_fraction, check_non_negative


class LRUCache:
    """Bounded mapping of keys to recency priorities with positional insertion.

    Only keys are stored — Bandana's caches never need the vector payloads to
    make decisions, and the replay engine tracks bytes separately — which is
    also what makes miniature caches cheap.

    Parameters
    ----------
    capacity:
        Maximum number of resident keys.  A capacity of zero is allowed and
        produces a cache that never stores anything (useful for degenerate
        sweeps).
    """

    def __init__(self, capacity: int) -> None:
        check_non_negative(capacity, "capacity")
        self.capacity = int(capacity)
        self._priority: Dict[int, float] = {}
        self._heap: List[Tuple[float, int]] = []
        self._clock: float = 0.0

    def __contains__(self, key: int) -> bool:
        return key in self._priority

    # ----------------------------------------------------------------- access
    def get(self, key: int) -> bool:
        """Look up ``key``; on a hit it is promoted to the top of the queue."""
        if key in self._priority:
            self._stamp(key, self._next_priority())
            return True
        return False

    def peek(self, key: int) -> bool:
        """Membership test that does *not* change recency."""
        return key in self._priority

    # ------------------------------------------------------------------ insert
    def insert(self, key: int, position: float = 0.0) -> Optional[int]:
        """Insert ``key`` at the given queue position, evicting if needed.

        ``position`` is the fractional distance from the top of the eviction
        queue: ``0.0`` inserts at the MRU top (a normal LRU insertion) and
        ``1.0`` at the LRU bottom (next in line for eviction).  If the key is
        already resident its position is updated.  Returns the evicted key, if
        any.
        """
        check_fraction(position, "position")
        if self.capacity == 0:
            return None
        evicted = None
        if key not in self._priority and len(self._priority) >= self.capacity:
            evicted = self._evict_one()
        self._stamp(key, self._priority_for_position(position))
        return evicted

    # ----------------------------------------------------------------- private
    def _next_priority(self) -> float:
        self._clock += 1.0
        return self._clock

    def _min_priority(self) -> float:
        """Priority of the current LRU bottom (cleaning stale heap entries)."""
        while self._heap:
            priority, key = self._heap[0]
            if self._priority.get(key) == priority:
                return priority
            heapq.heappop(self._heap)
        return self._clock

    def _priority_for_position(self, position: float) -> float:
        top = self._next_priority()
        if position <= 0.0 or not self._priority:
            return top
        bottom = self._min_priority()
        # The small extra term keeps a full-bottom insertion strictly below the
        # current LRU entry (ties would otherwise be broken by key order).
        return top - position * (top - bottom) - position * 1e-9

    #: Compact the lazy heap only once it exceeds this many entries.
    _COMPACT_MIN = 64

    def _stamp(self, key: int, priority: float) -> None:
        self._priority[key] = priority
        heapq.heappush(self._heap, (priority, key))
        # Heavy re-stamping (every hit promotes) leaves stale entries behind;
        # without compaction the heap grows without bound on long replays.
        if len(self._heap) > self._COMPACT_MIN and len(self._heap) > 2 * len(self._priority):
            self._heap = [(p, k) for k, p in self._priority.items()]
            heapq.heapify(self._heap)

    def _evict_one(self) -> Optional[int]:
        while self._heap:
            priority, key = heapq.heappop(self._heap)
            if self._priority.get(key) == priority:
                del self._priority[key]
                return key
        # Heap exhausted by stale entries: rebuild from the live mapping.
        if self._priority:
            key = min(self._priority, key=lambda k: self._priority[k])
            del self._priority[key]
            return key
        return None


class OrderedLRUCache:
    """Top-insertion LRU over an ``OrderedDict``: LRU order is insertion order.

    Equivalent to :class:`LRUCache` restricted to ``position == 0.0``: same
    evicted keys, same ``keys()`` order.  The batch engine's walk works on
    ``_entries`` directly (:meth:`insert` is that walk's step, spelled out),
    and the shadow-admission policies keep their demand-only shadow in one.
    """

    def __init__(self, capacity: int) -> None:
        check_non_negative(capacity, "capacity")
        self.capacity = int(capacity)
        # Resident keys, least recently used first.
        self._entries: "OrderedDict[int, None]" = OrderedDict()

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def insert(self, key: int) -> Optional[int]:
        """Insert (or promote) ``key`` at the top; returns the evicted key, if any."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return None
        if self.capacity == 0:
            return None
        evicted = None
        if len(entries) >= self.capacity:
            evicted = entries.popitem(last=False)[0]
        entries[key] = None
        return evicted

    def keys(self) -> List[int]:
        """Resident keys ordered from most- to least-recently used."""
        return list(reversed(self._entries))

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()
