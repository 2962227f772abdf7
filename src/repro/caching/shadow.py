"""The shadow cache: an id-only LRU used as a prefetch-admission filter.

Section 4.3.1 of the paper evaluates admitting a prefetched vector only if it
already appears in a *shadow cache* — a separate LRU list that records only
the ids of vectors the application explicitly requested, so it simulates what
a cache with no prefetching would contain.  The shadow cache is typically
sized as a multiplier (1×–2×) of the real cache.
"""

from __future__ import annotations

import numpy as np

from repro.caching.lru import LRUCache
from repro.utils.validation import check_non_negative, check_positive


class ShadowCache:
    """An LRU of vector ids tracking what a no-prefetch cache would hold.

    Parameters
    ----------
    real_cache_size:
        Size of the real (value-holding) cache, in vectors.
    multiplier:
        Shadow size as a multiple of the real cache (the x-axis of the
        paper's Figure 11b).
    """

    def __init__(self, real_cache_size: int, multiplier: float = 1.0) -> None:
        check_non_negative(real_cache_size, "real_cache_size")
        check_positive(multiplier, "multiplier")
        self.multiplier = float(multiplier)
        self._cache = LRUCache(int(round(real_cache_size * multiplier)))

    @property
    def capacity(self) -> int:
        """Maximum number of ids tracked."""
        return self._cache.capacity

    def __len__(self) -> int:
        return len(self._cache._priority)

    def __contains__(self, key: int) -> bool:
        return key in self._cache

    def record_access(self, key: int) -> None:
        """Record an application (demand) access to ``key``.

        Mirrors exactly what a no-prefetch LRU would do: promote on hit,
        insert at the top on miss.
        """
        if not self._cache.get(key):
            self._cache.insert(key, position=0.0)

    def record_access_batch(self, keys: np.ndarray) -> None:
        """Record a batch of demand accesses, in stream order.

        Exactly equivalent to calling :meth:`record_access` per key; kept as a
        loop because the shadow cache is dict-backed (batch callers such as the
        vectorized replay engine stay correct either way).
        """
        get = self._cache.get
        insert = self._cache.insert
        for key in np.asarray(keys).tolist():
            if not get(key):
                insert(key, position=0.0)

    def contains(self, key: int) -> bool:
        """Whether ``key`` is in the shadow cache (without changing recency)."""
        return self._cache.peek(key)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership array for ``keys`` (no recency change)."""
        peek = self._cache.peek
        return np.fromiter(
            (peek(key) for key in np.asarray(keys).tolist()),
            dtype=bool,
            count=len(keys),
        )

    def clear(self) -> None:
        """Drop all tracked ids."""
        self._cache.clear()
