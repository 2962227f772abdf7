"""Batch replay engine: the fast path of the cache stack.

Reference-vs-fast-path contract
-------------------------------
:func:`repro.caching.replay.replay_table_cache` is the *reference model*: a
pure-Python per-vector loop over a dict+heap :class:`~repro.caching.lru.LRUCache`
that mirrors the paper's prose one statement at a time.  It stays the source
of truth for what every counter means.  This module is the *fast path* every
store, tuner, cluster node and scenario runs on.  The contract between the two
is strict — for any trace, layout, top-only policy and cache size, the fast
path must produce **bit-identical** :class:`~repro.caching.replay.ReplayStats`
counters (``total_latency_us`` included) and the same ``cache.keys()``,
however the stream is cut into calls.  Speed must never silently change the
modeled numbers; ``tests/test_engine_equivalence.py`` enforces the contract.

One cache, one walk
-------------------
The engine replays *top-only* policies (:func:`admits_only_at_top`:
``never_admits`` or ``always_top_positions`` — everything the store, the
tuner, the cluster and the scenarios run).  Every stamp such a policy issues
is a fresh maximum, so LRU order *is* insertion order: the cache is an
:class:`~repro.caching.lru.OrderedLRUCache`, walked by one Python loop over
``ids.tolist()``.  A hit is ``move_to_end``, a victim is
``popitem(last=False)``, and a demand miss is O(1) pointer work with no
priorities, ties or hazard analysis (an evicted neighbour is simply
non-resident when its slot is examined).  A cache
as large as the table (``cache_size=None``) is the same map that never fills.
An array-native miss was measured at ≈ 35 NumPy dispatches on ≤ 32-element
arrays, ≈ 21 µs; the walk is 2.4–2.9× faster on every bounded
``bench_replay_throughput`` configuration, the 92 %-hit ones included.

Interpolated insert positions (``InsertAtPositionPolicy`` /
``CombinedPolicy`` with ``position > 0``, Figure 11 only) are not top-only:
the constructor rejects them, and
:func:`repro.simulation.runner.simulate_table` replays them with the
reference loop, the only implementation of that input.

Per-block admission decisions are cached for ``admit_is_static`` policies and
dropped when the placement changes (:meth:`BatchReplayEngine.swap_layout`) or
the policy says its decisions did (``PrefetchPolicy.admit_version``).
``admit`` must be a pure function of the candidate id and the policy's
current state (true of every built-in policy): it is evaluated per block,
also for candidates the reference loop would have skipped as
already-resident.  Stateful ``record_access`` is fully supported: the policy
has observed every lookup up to and including the missing id before ``admit``
runs.  :func:`replay_table_cache_multi` replays one stream through many
independent caches (the miniature-cache tuner's candidate thresholds).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np
import numpy.typing as npt

from repro.caching.lru import OrderedLRUCache
from repro.caching.policies import PrefetchPolicy
from repro.caching.replay import ReplayStats
from repro.nvm.block import BlockLayout
from repro.nvm.latency import QUEUE_DEPTH, NVMLatencyModel
from repro.utils.validation import (
    check_array_1d_ints,
    check_fraction,
    check_id_range,
    check_int_at_least,
)


#: Most ids one pass of the walk takes from a longer stream.
_SLICE_IDS = 8192


def admits_only_at_top(policy: PrefetchPolicy) -> bool:
    """True when every candidate ``policy`` admits enters at the top of the queue.

    The batch engine replays exactly these policies; any other needs
    interpolated insert positions, which only the reference loop
    (:func:`repro.caching.replay.replay_table_cache`) implements.
    """
    return bool(policy.never_admits or policy.always_top_positions)


def _require_top_only(policy: PrefetchPolicy) -> None:
    if not admits_only_at_top(policy):
        raise ValueError(
            f"{type(policy).__name__} admits below the top of the queue; the batch "
            "engine replays only top-only policies (never_admits or "
            "always_top_positions): replay it with replay_table_cache"
        )


class BatchReplayEngine:
    """Replay of lookup queries against one table's DRAM cache.

    Accumulates the same :class:`~repro.caching.replay.ReplayStats` the
    reference loop would.  The engine owns its cache and the pending-prefetch
    state, so it can be kept alive across calls for online serving (the role
    the ``cache=`` argument plays for the reference loop).  Repeated
    reference-loop calls reset their pending-prefetch set each time, losing
    prefetch-hit attribution; the engine carries it, so serving a stream over
    many calls gives exactly the counters of one uninterrupted reference
    replay of the concatenated stream.

    Parameters mirror :func:`repro.caching.replay.replay_table_cache`.  With
    a ``device`` every demand miss adds one read's unloaded price,
    ``device.mean_latency_us(QUEUE_DEPTH)``, to ``stats.total_latency_us``;
    ``stats.misses`` is the block-read count.  A policy that is not
    top-only (:func:`admits_only_at_top`) raises ``ValueError``, as do a
    non-integer ``cache_size`` or ``vector_bytes`` (``TypeError``), before
    any state exists.
    """

    def __init__(
        self,
        layout: BlockLayout,
        policy: PrefetchPolicy,
        cache_size: Optional[int] = None,
        vector_bytes: int = 128,
        device: Optional[NVMLatencyModel] = None,
        stats: Optional[ReplayStats] = None,
    ) -> None:
        _require_top_only(policy)
        vector_bytes = check_int_at_least(vector_bytes, 1, "vector_bytes")
        block_bytes = layout.vectors_per_block * vector_bytes
        if stats is None:
            stats = ReplayStats(vector_bytes=vector_bytes, block_bytes=block_bytes)
        elif (stats.vector_bytes, stats.block_bytes) != (vector_bytes, block_bytes):
            raise ValueError("existing stats were created with a different geometry")
        if cache_size is None:
            capacity = layout.num_vectors
        else:
            capacity = check_int_at_least(cache_size, 0, "cache_size")
        self.policy = policy
        self.stats = stats
        self.device = device
        #: One block read's unloaded latency (µs), priced once (0 without a device).
        self._read_us = 0.0 if device is None else device.mean_latency_us(QUEUE_DEPTH)
        # Policy capabilities resolved once (see PrefetchPolicy class attrs).
        self._never_admits = bool(policy.never_admits)
        self._records = not (
            type(policy).record_access is PrefetchPolicy.record_access
            and type(policy).record_access_batch is PrefetchPolicy.record_access_batch
        )
        self._static_admit = bool(policy.admit_is_static)
        self.cache = OrderedLRUCache(capacity)
        # Resident because of a prefetch and not yet demanded.
        self._pending: Set[int] = set()
        self._set_layout(layout)

    # ---------------------------------------------------------------- replay
    def replay(self, queries: Iterable[npt.ArrayLike]) -> ReplayStats:
        """Replay an iterable of id arrays (query boundaries carry no state)."""
        self.replay_query(_concatenate_ids(queries))
        return self.stats

    def replay_query(self, ids: npt.ArrayLike, validate: bool = True) -> None:
        """Replay one query (an id array) against the cache.

        Ids must be integers in ``[0, num_vectors)`` in a 1-D sequence; a bad
        query raises before any counter, cache, policy or device is touched.
        ``validate=False`` skips the checks for a caller that has made them
        (e.g. :func:`replay_table_cache_multi`) and passes an ``int64`` array.
        """
        if validate:
            ids = check_array_1d_ints(ids, "vector_ids")
            check_id_range(ids, self._num_vectors)
        else:
            ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        if self._admit_version != self.policy.admit_version:
            self._admit_version = self.policy.admit_version
            self._block_admit.clear()
        # The walk turns ids into Python ints; a bounded slice at a time keeps
        # that transient off the peak footprint (cuts change no counter).
        if ids.size <= _SLICE_IDS:
            self._walk_ordered(ids)
            return
        for start in range(0, ids.size, _SLICE_IDS):
            self._walk_ordered(ids[start : start + _SLICE_IDS])

    # ---------------------------------------------------------------- private
    def _set_layout(self, layout: BlockLayout) -> None:
        """Bind the placement-derived state (id→block, physical order)."""
        self.layout = layout
        self._num_vectors = layout.num_vectors
        self._vectors_per_block = layout.vectors_per_block
        self._block_arr = layout.block_of(np.arange(layout.num_vectors, dtype=np.int64))
        self._order = layout.order
        # Admissible vectors per block, for ``admit_is_static`` policies.
        self._block_admit: Dict[int, List[int]] = {}
        self._admit_version = self.policy.admit_version

    def _admissible(self, block_id: int) -> List[int]:
        """One ``admit_batch`` call: a block's admissible vectors, in slot order.

        A list of Python ints (the walk's key type), kept per block while the
        policy's decisions are static.  Positions outside ``[0, 1]`` raise the
        ``ValueError`` the reference loop raises from ``LRUCache.insert``
        (NaN, a rejection, compares false both ways).
        """
        start = block_id * self._vectors_per_block
        neighbours = self._order[start : start + self._vectors_per_block]
        positions = np.asarray(self.policy.admit_batch(neighbours), dtype=np.float64)
        out_of_range = (positions < 0.0) | (positions > 1.0)
        if out_of_range.any():
            check_fraction(float(positions[out_of_range][0]), "position")
        admissible = neighbours[~np.isnan(positions)].tolist()
        if self._static_admit:
            self._block_admit[block_id] = admissible
        return admissible

    def _walk_ordered(self, ids: np.ndarray) -> None:
        """The replay: a scalar walk over the ordered map.

        ``OrderedLRUCache.insert`` inlined on its ``OrderedDict``.  The demand
        vector is excluded from its own block's candidates by identity, not
        residency: with a cache smaller than a block its own prefetch sweep
        evicts it.  Residency is read when a slot is examined.
        """
        cache = self.cache
        entries = cache._entries
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        capacity = cache.capacity
        pending = self._pending
        policy = self.policy
        records = self._records
        read_us = self._read_us
        block_of = self._block_arr.item
        block_admit = self._block_admit
        admits = capacity > 0 and not self._never_admits
        stats = self.stats
        latency = stats.total_latency_us
        misses = admitted = prefetch_hits = unused = evictions = recorded = 0
        for index, vid in enumerate(ids.tolist()):
            if vid in entries:
                move_to_end(vid)
                if vid in pending:
                    pending.discard(vid)
                    prefetch_hits += 1
                continue
            # Demand miss: read the block holding the vector.
            misses += 1
            if records:
                policy.record_access_batch(ids[recorded : index + 1])
                recorded = index + 1
            latency += read_us
            if capacity == 0:
                continue
            if len(entries) >= capacity:
                victim = popitem(last=False)[0]
                evictions += 1
                if victim in pending:
                    pending.discard(victim)
                    unused += 1
            entries[vid] = None
            if not admits:
                continue
            # Offer the rest of the block to the prefetch policy, in slot order.
            block_id = block_of(vid)
            candidates = block_admit.get(block_id)
            if candidates is None:
                candidates = self._admissible(block_id)
            for neighbour in candidates:
                if neighbour == vid or neighbour in entries:
                    continue
                if len(entries) >= capacity:
                    victim = popitem(last=False)[0]
                    evictions += 1
                    if victim in pending:
                        pending.discard(victim)
                        unused += 1
                entries[neighbour] = None
                pending.add(neighbour)
                admitted += 1
        if records and recorded < ids.size:
            policy.record_access_batch(ids[recorded:])
        lookups = int(ids.size)
        stats.lookups += lookups
        stats.hits += lookups - misses
        stats.prefetch_hits += prefetch_hits
        if misses:  # everything below moves only on a miss
            stats.misses += misses
            stats.total_latency_us = latency
            stats.prefetch_admitted += admitted
            stats.prefetch_evicted_unused += unused
            stats.evictions += evictions

    def swap_layout(self, layout: BlockLayout) -> None:
        """Adopt a new block placement without disturbing cache residency.

        Models an online re-partition: the NVM blocks are rewritten in the
        new order, but DRAM cache entries are keyed by vector id and stay
        valid, so residency, LRU order, pending-prefetch attribution and the
        cumulative stats all carry over.  Only the placement-derived state
        (id→block mapping, physical order, per-block admission cache) is
        rebuilt.  The new layout must cover the same vector universe with
        the same block geometry.
        """
        if (layout.num_vectors, layout.vectors_per_block) != (
            self._num_vectors,
            self._vectors_per_block,
        ):
            raise ValueError(
                "swap_layout requires identical geometry: "
                f"({layout.num_vectors} vectors, {layout.vectors_per_block}/block) "
                f"vs ({self._num_vectors}, {self._vectors_per_block})"
            )
        self._set_layout(layout)


def _concatenate_ids(queries: Iterable[npt.ArrayLike]) -> np.ndarray:
    """Validate every query's ids and join them into one ``int64`` stream."""
    arrays = [check_array_1d_ints(query, "vector_ids") for query in queries]
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)


def replay_table_cache_batched(
    queries: Iterable[np.ndarray],
    layout: BlockLayout,
    policy: PrefetchPolicy,
    cache_size: Optional[int] = None,
    vector_bytes: int = 128,
) -> ReplayStats:
    """Batched drop-in for :func:`repro.caching.replay.replay_table_cache`.

    Produces bit-identical :class:`~repro.caching.replay.ReplayStats` to the
    reference loop on a fresh cache.  To price block reads on a device,
    continue a stats object or keep serving across calls, keep a
    :class:`BatchReplayEngine` and call its ``replay``.
    """
    engine = BatchReplayEngine(layout, policy, cache_size=cache_size, vector_bytes=vector_bytes)
    return engine.replay(queries)


def replay_table_cache_multi(
    queries: Iterable[np.ndarray],
    layout: BlockLayout,
    policies: Sequence[PrefetchPolicy],
    cache_sizes: Sequence[Optional[int]],
    vector_bytes: int = 128,
) -> List[ReplayStats]:
    """Replay one stream through several independent caches.

    The i-th result is bit-identical to replaying ``queries`` through policy
    ``policies[i]`` with cache size ``cache_sizes[i]`` on its own, but the id
    conversion and validation are shared across all caches, and each engine
    is dropped as soon as its stats are final.  This is the kernel behind the
    miniature-cache tuner's multi-threshold mode.  Every policy and size is
    checked before the first replay, so a bad one raises before any policy
    has observed a lookup.
    """
    if len(policies) != len(cache_sizes):
        raise ValueError("policies and cache_sizes must have the same length")
    for policy, size in zip(policies, cache_sizes):
        _require_top_only(policy)
        if size is not None:
            check_int_at_least(size, 0, "cache_size")
    ids = _concatenate_ids(queries)
    check_id_range(ids, layout.num_vectors)
    results = []
    for policy, size in zip(policies, cache_sizes):
        engine = BatchReplayEngine(layout, policy, cache_size=size, vector_bytes=vector_bytes)
        engine.replay_query(ids, validate=False)
        results.append(engine.stats)
    return results
