"""The per-table cache replay engine.

Every cache experiment in the paper — unlimited-cache placement studies
(Figures 6, 8, 9), limited-cache policy studies (Figures 10–12), the miniature
caches (Table 2, Figure 14) and the end-to-end evaluation (Figures 13–16) —
boils down to the same loop: replay a trace of lookup queries against one
table's DRAM cache, reading a 4 KB block from NVM on every demand miss and
letting a prefetch policy decide what else from that block enters the cache.
:func:`replay_table_cache` is that loop; everything else in the library is a
wrapper around it.

This module is the *reference model*: a deliberately plain per-vector loop
that transcribes the paper's behaviour one statement at a time.  Serving,
tuning and simulation run on the batch engine in :mod:`repro.caching.engine`,
which is required (and tested) to reproduce this loop's :class:`ReplayStats`
counters bit for bit — keep the two in sync when changing replay semantics.
The engine replays only policies that admit at the top of the queue; this
loop is the one implementation of interpolated insert positions (Figure 11),
which :func:`repro.simulation.runner.simulate_table` sends here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set

import numpy as np

from repro.caching.lru import LRUCache
from repro.caching.policies import PrefetchPolicy
from repro.nvm.block import BlockLayout
from repro.nvm.latency import QUEUE_DEPTH, NVMLatencyModel
from repro.utils.validation import check_array_1d_ints, check_int_at_least


@dataclass
class ReplayStats:
    """Counters accumulated while replaying a trace against one table's cache.

    ``block_reads`` equals ``misses``: each demand miss triggers exactly one
    block read (the block holding the requested vector).  Effective bandwidth
    is the ratio of application-requested bytes to bytes physically read from
    NVM; comparisons against the no-prefetch baseline are computed by the
    callers, which run the baseline separately.
    """

    vector_bytes: int = 128
    block_bytes: int = 4096
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    prefetch_admitted: int = 0
    prefetch_hits: int = 0
    prefetch_evicted_unused: int = 0
    evictions: int = 0
    total_latency_us: float = 0.0

    # ------------------------------------------------------------- derived
    @property
    def block_reads(self) -> int:
        """Number of NVM block reads issued (one per demand miss)."""
        return self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from DRAM."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def app_bytes(self) -> int:
        """Bytes the application asked for (lookups × vector size)."""
        return self.lookups * self.vector_bytes

    @property
    def nvm_bytes(self) -> int:
        """Bytes physically read from the NVM device."""
        return self.block_reads * self.block_bytes

    @property
    def effective_bandwidth(self) -> float:
        """Application bytes per NVM byte read (∞-free: 0 when nothing was read).

        Values above 1.0 are possible because cache hits serve application
        bytes without any NVM read.
        """
        if self.nvm_bytes == 0:
            return 0.0
        return self.app_bytes / self.nvm_bytes

    def counters(self) -> tuple:
        """The counter fields as one comparable tuple.

        This is the tuple every equivalence check in the repository (tests
        and benchmarks) compares, so a counter added to this class is
        picked up by all of them at once.  Where both sides model the same
        device, compare ``total_latency_us`` beside it.
        """
        return (
            self.lookups,
            self.hits,
            self.misses,
            self.prefetch_admitted,
            self.prefetch_hits,
            self.prefetch_evicted_unused,
            self.evictions,
        )

    def merge(self, other: "ReplayStats") -> "ReplayStats":
        """Return the element-wise sum of two stats objects (same geometry)."""
        if (self.vector_bytes, self.block_bytes) != (other.vector_bytes, other.block_bytes):
            raise ValueError("cannot merge stats with different vector/block sizes")
        return ReplayStats(
            vector_bytes=self.vector_bytes,
            block_bytes=self.block_bytes,
            lookups=self.lookups + other.lookups,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            prefetch_admitted=self.prefetch_admitted + other.prefetch_admitted,
            prefetch_hits=self.prefetch_hits + other.prefetch_hits,
            prefetch_evicted_unused=self.prefetch_evicted_unused
            + other.prefetch_evicted_unused,
            evictions=self.evictions + other.evictions,
            total_latency_us=self.total_latency_us + other.total_latency_us,
        )


def effective_bandwidth_increase(baseline: ReplayStats, candidate: ReplayStats) -> float:
    """The paper's headline metric: relative reduction in NVM block reads.

    A value of ``0.0`` means the candidate reads exactly as many blocks as the
    baseline; ``1.0`` means it reads half as many (a 100 % effective-bandwidth
    increase); negative values mean the candidate is worse than the baseline.
    """
    if candidate.block_reads == 0:
        return 0.0 if baseline.block_reads == 0 else float("inf")
    return baseline.block_reads / candidate.block_reads - 1.0


def replay_table_cache(
    queries: Iterable[np.ndarray],
    layout: BlockLayout,
    policy: PrefetchPolicy,
    cache: Optional[LRUCache] = None,
    cache_size: Optional[int] = None,
    vector_bytes: int = 128,
    device: Optional[NVMLatencyModel] = None,
    stats: Optional[ReplayStats] = None,
) -> ReplayStats:
    """Replay lookup queries against one table's DRAM cache.

    Parameters
    ----------
    queries:
        Iterable of id arrays (e.g. ``Trace.queries``).
    layout:
        Physical placement of the table's vectors into NVM blocks.
    policy:
        Prefetch-admission policy applied to the non-requested vectors of each
        fetched block.
    cache:
        An existing cache to keep using (for online serving across calls).
        When omitted, a fresh :class:`LRUCache` is created.
    cache_size:
        Capacity (in vectors) of the fresh cache.  ``None`` means *unlimited*
        (capacity equal to the table size), reproducing the paper's
        infinite-cache placement studies.
    vector_bytes:
        Bytes per embedding vector (128 in the paper).
    device:
        Optional :class:`~repro.nvm.latency.NVMLatencyModel`; when provided,
        every block read adds its unloaded latency at
        :data:`~repro.nvm.latency.QUEUE_DEPTH` to ``stats.total_latency_us``.
    stats:
        Optional existing stats object to continue accumulating into.

    Returns
    -------
    ReplayStats
    """
    vector_bytes = check_int_at_least(vector_bytes, 1, "vector_bytes")
    block_bytes = layout.vectors_per_block * vector_bytes
    if cache is None:
        if cache_size is None:
            cache = LRUCache(layout.num_vectors)
        else:
            cache = LRUCache(check_int_at_least(cache_size, 0, "cache_size"))
    if stats is None:
        stats = ReplayStats(vector_bytes=vector_bytes, block_bytes=block_bytes)
    elif (stats.vector_bytes, stats.block_bytes) != (vector_bytes, block_bytes):
        raise ValueError("existing stats were created with a different geometry")

    read_us = None if device is None else device.mean_latency_us(QUEUE_DEPTH)
    # Vectors currently resident because of a prefetch and not yet demanded.
    pending_prefetches: Set[int] = set()

    block_of = layout.block_of
    vectors_in_block = layout.vectors_in_block

    for query in queries:
        ids = check_array_1d_ints(query, "vector_ids")
        if ids.size == 0:
            continue
        blocks = block_of(ids)
        for vector_id, block_id in zip(ids.tolist(), blocks.tolist()):
            stats.lookups += 1
            policy.record_access(vector_id)
            if cache.get(vector_id):
                stats.hits += 1
                if vector_id in pending_prefetches:
                    stats.prefetch_hits += 1
                    pending_prefetches.discard(vector_id)
                continue

            # Demand miss: read the block holding the vector.
            stats.misses += 1
            if read_us is not None:
                stats.total_latency_us += read_us

            evicted = cache.insert(vector_id, position=0.0)
            pending_prefetches.discard(vector_id)
            if evicted is not None:
                stats.evictions += 1
                if evicted in pending_prefetches:
                    pending_prefetches.discard(evicted)
                    stats.prefetch_evicted_unused += 1

            # Offer the rest of the block to the prefetch policy.
            for neighbour in vectors_in_block(block_id).tolist():
                if neighbour == vector_id or cache.peek(neighbour):
                    continue
                position = policy.admit(neighbour)
                if position is None:
                    continue
                evicted = cache.insert(neighbour, position=position)
                if neighbour in cache:
                    stats.prefetch_admitted += 1
                    pending_prefetches.add(neighbour)
                if evicted is not None:
                    stats.evictions += 1
                    if evicted in pending_prefetches and evicted != neighbour:
                        pending_prefetches.discard(evicted)
                        stats.prefetch_evicted_unused += 1
    return stats
