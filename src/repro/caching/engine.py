"""Vectorized batch replay engine: the array-native fast path of the cache stack.

Reference-vs-fast-path contract
-------------------------------
:func:`repro.caching.replay.replay_table_cache` is the *reference model*: a
pure-Python per-vector loop over a dict+heap :class:`~repro.caching.lru.LRUCache`
that mirrors the paper's prose one statement at a time.  It stays the source
of truth for what every counter means.  This module is the *fast path*: the
same simulation recast as batched NumPy kernels.  The contract between the two
is strict — for any trace, layout, policy and cache size, the fast path must
produce **bit-identical** :class:`~repro.caching.replay.ReplayStats` counters
(``lookups``, ``hits``, ``misses``, ``prefetch_admitted``, ``prefetch_hits``,
``prefetch_evicted_unused``, ``evictions``, ``total_latency_us``).  Speed must
never silently change the modeled numbers; ``tests/test_engine_equivalence.py``
enforces the contract on randomized traces across all policies and cache sizes.

How the vectorization works
---------------------------
* :class:`ArrayLRUCache` replaces the dict+heap cache with flat NumPy arrays
  indexed by vector id — a ``float64`` recency-priority array and a boolean
  residency array.  Eviction order needs no heap on the common path: a
  top-of-queue stamp is a fresh clock value, larger than everything already
  stored, so stamps are appended to a *monotone stamp log* (two preallocated
  arrays and a head cursor) that is sorted by construction.  Promotions and
  admissions are slice writes, eviction advances the head past entries whose
  key has since been re-stamped or evicted, and compaction is one vectorised
  liveness mask.  Only interpolated priorities (``position > 0``) go to a
  small lazy-deletion heap; the victim is the lexicographic ``(priority,
  key)`` minimum of the two heads, so eviction order (including priority
  ties, which the reference heap breaks by id) is reproduced exactly.
* :class:`BatchReplayEngine` walks each query as alternating segments: a
  maximal *run of hits* (classified in one residency-array gather) is counted,
  recorded with the policy and promoted in bulk; the following *demand miss*
  reads its block and offers the non-resident co-residents to the policy
  through the vectorized ``admit_batch`` API in one call.
* When no eviction can occur (the common case for adequately sized and
  unlimited caches) the admitted vectors are stamped in bulk, with insertion
  priorities computed by the same float expression the reference uses so the
  bits match.  When top-of-queue admissions must evict, the victims are read
  off the log without removing them (``peek_oldest``), checked for the one
  hazard sequencing can cause, and committed with array operations.  When an
  interpolated insertion could interact with an eviction — or would dip below
  the current queue bottom, where sequencing matters — the engine falls back
  to an exact per-vector path over the same array cache.

The engine requires ``admit`` to be a pure function of the candidate id and
the policy's current state (true for all six built-in policies): it may be
called for candidates the reference loop would have skipped as
already-resident.  Stateful ``record_access`` is fully supported and is
invoked in exactly the reference order.

Multi-cache replay
------------------
:func:`replay_table_cache_multi` replays one stream through many independent
caches/policies in a single pass, sharing the per-query id/block gathers.
:class:`~repro.caching.miniature.MiniatureCacheTuner` uses it to evaluate all
candidate admission thresholds with one walk over the sampled stream.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.caching.policies import PrefetchPolicy
from repro.caching.replay import ReplayStats
from repro.nvm.block import BlockLayout
from repro.nvm.device import NVMDevice
from repro.utils.validation import check_fraction, check_non_negative, check_positive


class ArrayLRUCache:
    """Array-backed positional-insertion LRU over a bounded id universe.

    Semantically equivalent to :class:`~repro.caching.lru.LRUCache` for keys
    in ``[0, num_slots)``: same evicted keys, same ``keys()`` order, same
    ``(priority, key)`` tie-break.  State lives in flat NumPy arrays indexed
    by key — a ``float64`` recency priority and a boolean residency flag — so
    membership tests, promotions and top-of-queue insertions run for whole
    batches of keys at once.

    Eviction order is kept without a heap on the common path.  A
    top-of-queue stamp is a fresh clock value, larger than every priority
    already stored, so stamps are appended to a *monotone stamp log* (two
    preallocated arrays, ``priority`` and ``key``, with a head cursor) that
    is sorted by construction.  A logged entry is *live* while
    ``resident[key] and prio[key] == logged priority``; re-stamping or
    evicting a key leaves its older entries stale, and stale entries stay
    stale for good.  Only interpolated priorities (``insert_at`` with
    ``position > 0``), which land below the top, go to a small lazy-deletion
    ``heapq``.  The eviction victim is the lexicographic minimum of the two
    live heads.

    Both structures are compacted with one vectorised liveness mask when they
    fill up, and the log's arrays double only when live entries need the
    room, so each holds at most ``max(_COMPACT_MIN, 4 * len(cache))``
    entries (:meth:`order_entries` reports their sum).  A cache that can hold
    the whole id universe never evicts and tracks no order at all until a
    min-query forces one ``lexsort`` over the priority array.

    Parameters
    ----------
    capacity:
        Maximum number of resident keys (0 stores nothing).
    num_slots:
        Size of the id universe; every key must be in ``[0, num_slots)``.
    """

    #: Initial length of the stamp log, and the size below which neither
    #: order structure is ever compacted.
    _COMPACT_MIN = 64

    def __init__(self, capacity: int, num_slots: int) -> None:
        check_non_negative(capacity, "capacity")
        check_positive(num_slots, "num_slots")
        self.capacity = int(capacity)
        self.num_slots = int(num_slots)
        self._prio = np.zeros(self.num_slots, dtype=np.float64)
        self._resident = np.zeros(self.num_slots, dtype=bool)
        self._clock = 0.0
        self._live = 0
        self._evictions = 0
        self._reset_order()

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return self._live

    def __contains__(self, key: int) -> bool:
        return bool(self._resident[key])

    def peek(self, key: int) -> bool:
        """Membership test that does not change recency."""
        return bool(self._resident[key])

    @property
    def evictions(self) -> int:
        """Number of entries evicted so far."""
        return self._evictions

    def resident_mask(self, keys: np.ndarray) -> np.ndarray:
        """Boolean residency of every key in ``keys`` (one gather)."""
        return self._resident[keys]

    def keys(self) -> List[int]:
        """Resident keys ordered from most- to least-recently prioritised."""
        ids = np.flatnonzero(self._resident)
        return ids[np.argsort(-self._prio[ids], kind="stable")].tolist()

    def order_entries(self) -> int:
        """Entries (live and stale) held by the stamp log and the heap."""
        return self._tail - self._head + len(self._interp)

    def clear(self) -> None:
        """Drop all entries and reset the eviction counter."""
        self._resident[:] = False
        self._prio[:] = 0.0
        self._clock = 0.0
        self._live = 0
        self._evictions = 0
        self._reset_order()

    # ------------------------------------------------------------------- bulk
    def promote_batch(self, keys: np.ndarray) -> None:
        """Stamp already-resident ``keys`` with fresh top priorities, in order.

        Equivalent to calling ``get`` on each key in sequence: the i-th key
        receives priority ``clock + i + 1`` and duplicate keys keep their last
        stamp.  All keys must currently be resident.
        """
        n = int(keys.size)
        if n == 0:
            return
        if n < 8 and self._tail + n <= self._log_key.size:
            # Scalar path: numpy vector-op overhead dominates on tiny runs.
            clock = self._clock
            prio = self._prio
            if self._track_order:
                log_prio = self._log_prio
                log_key = self._log_key
                tail = self._tail
                for key in keys.tolist():
                    clock += 1.0
                    prio[key] = clock
                    log_prio[tail] = clock
                    log_key[tail] = key
                    tail += 1
                self._tail = tail
            else:
                for key in keys.tolist():
                    clock += 1.0
                    prio[key] = clock
            self._clock = clock
            return
        prios = self._clock + 1.0 + np.arange(n, dtype=np.float64)
        self._prio[keys] = prios  # duplicate keys: last assignment wins
        self._clock += float(n)
        if self._track_order:
            self._log_stamps(keys, prios)

    def stamp_top(self, key: int) -> None:
        """Insert or promote one key at the top of the queue (no eviction)."""
        self._clock += 1.0
        if not self._resident[key]:
            self._resident[key] = True
            self._live += 1
        self._prio[key] = self._clock
        if self._track_order:
            if self._tail == self._log_key.size:
                self._compact_log(1)
            self._log_prio[self._tail] = self._clock
            self._log_key[self._tail] = key
            self._tail += 1

    def stamp_bulk(self, keys: np.ndarray, prios: Optional[np.ndarray] = None) -> None:
        """Insert distinct non-resident ``keys``, in order, without evicting.

        ``prios=None`` stamps every key at the top of the queue.  Otherwise
        the caller passes the priorities sequential ``insert`` calls would
        have produced; those equal to the key's own clock stamp are logged,
        the interpolated rest go to the heap.
        """
        n = int(keys.size)
        if n == 0:
            return
        tops = self._clock + 1.0 + np.arange(n, dtype=np.float64)
        self._prio[keys] = tops if prios is None else prios
        self._resident[keys] = True
        self._live += n
        self._clock += float(n)
        if not self._track_order:
            return
        if prios is None:
            self._log_stamps(keys, tops)
            return
        top = prios == tops
        self._log_stamps(keys[top], tops[top])
        lowered = ~top
        for entry in zip(prios[lowered].tolist(), keys[lowered].tolist()):
            heapq.heappush(self._interp, entry)
        self._maybe_compact_interp()

    # ----------------------------------------------------------------- scalar
    def insert_at(self, key: int, position: float) -> Optional[int]:
        """Insert ``key`` at a queue position, exactly like ``LRUCache.insert``.

        Returns the evicted key, if any.  This is the exact sequential path;
        the float expression matches the reference implementation bit for bit.
        """
        check_fraction(position, "position")
        if self.capacity == 0:
            return None
        evicted = None
        if not self._resident[key] and self._live >= self.capacity:
            evicted = self._evict_one()
        if position <= 0.0 or self._live == 0:
            self.stamp_top(key)
            return evicted
        self._clock += 1.0
        top = self._clock
        bottom = self._min_priority()
        priority = top - position * (top - bottom) - position * 1e-9
        if not self._resident[key]:
            self._resident[key] = True
            self._live += 1
        self._prio[key] = priority
        heapq.heappush(self._interp, (priority, key))
        self._maybe_compact_interp()
        return evicted

    # ------------------------------------------------------ eviction order
    def peek_oldest(self, k: int) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        """The ``k >= 1`` next eviction victims, read off the log without removal.

        Returns their ``(priorities, keys)`` in eviction order plus the log
        cursor just past them (for :meth:`evict_peeked`), or ``None`` when
        the log alone cannot name them: it holds fewer than ``k`` live
        entries, or a live interpolated entry is not younger than all of
        them.
        """
        if not self._track_order:
            self._materialise_order()
        found = self._live_positions(k)
        if found.size < k:
            return None
        prios = self._log_prio[found]
        interp = self._live_interp_head()
        if interp is not None and interp[0] <= prios[-1]:
            return None
        return prios, self._log_key[found], int(found[-1]) + 1

    def evict_peeked(self, keys: np.ndarray, end: int) -> None:
        """Evict the victims a :meth:`peek_oldest` call just returned."""
        k = int(keys.size)
        self._resident[keys] = False
        self._head = end
        self._live -= k
        self._evictions += k

    # ----------------------------------------------------------------- private
    def _reset_order(self) -> None:
        # Stamp log: entries [_head, _tail) in increasing (priority, key).
        self._log_prio = np.empty(self._COMPACT_MIN, dtype=np.float64)
        self._log_key = np.empty(self._COMPACT_MIN, dtype=np.int64)
        self._head = 0
        self._tail = 0
        # Lazy-deletion heap of interpolated (priority, key) entries.
        self._interp: List[Tuple[float, int]] = []
        # A cache that can hold the whole id universe never evicts, so no
        # eviction order is tracked; the log is materialised lazily (from the
        # priority arrays) if a min-query ever happens.
        self._track_order = self.capacity < self.num_slots

    def _log_stamps(self, keys: np.ndarray, prios: np.ndarray) -> None:
        """Append clock stamps already written to the priority array."""
        n = int(keys.size)
        if self._tail + n > self._log_key.size:
            # Out of room.  Only the last stamp of a repeated key is live, so
            # log just those: with the stale entries compacted away, live
            # logged entries plus these never exceed ``len(self)``.
            last = self._prio[keys] == prios
            keys = keys[last]
            prios = prios[last]
            n = int(keys.size)
            self._compact_log(n)
        end = self._tail + n
        self._log_prio[self._tail : end] = prios
        self._log_key[self._tail : end] = keys
        self._tail = end

    def _compact_log(self, incoming: int) -> None:
        """Drop the log's stale entries and leave room for ``incoming`` more.

        The arrays double only while the live entries and the incoming ones
        fill more than half of them, which keeps appends amortised O(1) and
        the log within ``max(_COMPACT_MIN, 4 * len(self))`` entries.
        """
        keys = self._log_key[self._head : self._tail]
        prios = self._log_prio[self._head : self._tail]
        live = self._resident[keys]
        live &= self._prio[keys] == prios
        keys = keys[live]
        prios = prios[live]
        kept = int(keys.size)
        need = 2 * (kept + incoming)
        if need > self._log_key.size:
            size = 1 << (need - 1).bit_length()  # next power of two
            self._log_prio = np.empty(size, dtype=np.float64)
            self._log_key = np.empty(size, dtype=np.int64)
        self._log_prio[:kept] = prios
        self._log_key[:kept] = keys
        self._head = 0
        self._tail = kept

    def _maybe_compact_interp(self) -> None:
        heap = self._interp
        if len(heap) > self._COMPACT_MIN and len(heap) > 3 * self._live:
            entries = np.array(heap, dtype=np.float64)
            keys = entries[:, 1].astype(np.int64)
            live = self._resident[keys]
            live &= self._prio[keys] == entries[:, 0]
            heap[:] = zip(entries[live, 0].tolist(), keys[live].tolist())
            heapq.heapify(heap)

    def _live_positions(self, k: int) -> np.ndarray:
        """Log positions of the ``k`` oldest live entries (fewer if it runs out).

        Scans a window from the head that grows until it holds ``k`` live
        entries, then moves the head past the leading stale ones.
        """
        head, tail = self._head, self._tail
        span = max(4 * k, 32)
        while True:
            stop = min(head + span, tail)
            keys = self._log_key[head:stop]
            live = self._resident[keys]
            live &= self._prio[keys] == self._log_prio[head:stop]
            found = live.nonzero()[0]
            if found.size >= k or stop == tail:
                break
            span *= 4
        found = found[:k] + head
        self._head = int(found[0]) if found.size else tail
        return found

    def _live_interp_head(self) -> Optional[Tuple[float, int]]:
        """The heap's minimum live entry, popping stale ones above it."""
        heap = self._interp
        while heap:
            priority, key = heap[0]
            if self._resident[key] and self._prio[key] == priority:
                return heap[0]
            heapq.heappop(heap)
        return None

    def _oldest(self) -> Optional[Tuple[float, int, bool]]:
        """The live ``(priority, key)`` minimum, and whether the log holds it."""
        if not self._track_order:
            self._materialise_order()
        interp = self._live_interp_head() if self._interp else None
        head = self._head
        if head < self._tail:
            key = self._log_key[head]
            if not (self._resident[key] and self._prio[key] == self._log_prio[head]):
                self._live_positions(1)
                head = self._head
        if head < self._tail:
            logged = (float(self._log_prio[head]), int(self._log_key[head]))
            if interp is None or logged < interp:
                return logged + (True,)
        return None if interp is None else interp + (False,)

    def _min_priority(self) -> float:
        """Priority of the current LRU bottom (the clock when empty)."""
        oldest = self._oldest()
        return self._clock if oldest is None else oldest[0]

    def _evict_one(self) -> Optional[int]:
        oldest = self._oldest()
        if oldest is None:
            return None
        _, key, logged = oldest
        if logged:
            self._head += 1
        else:
            heapq.heappop(self._interp)
        self._resident[key] = False
        self._live -= 1
        self._evictions += 1
        return key

    def _materialise_order(self) -> None:
        """Build the stamp log from the priority arrays on first demand."""
        ids = np.flatnonzero(self._resident)
        ids = ids[np.lexsort((ids, self._prio[ids]))]
        self._track_order = True
        self._log_stamps(ids, self._prio[ids])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrayLRUCache(capacity={self.capacity}, num_slots={self.num_slots}, "
            f"live={self._live})"
        )


class BatchReplayEngine:
    """Array-native replay of lookup queries against one table's DRAM cache.

    Processes whole queries at a time and accumulates the same
    :class:`~repro.caching.replay.ReplayStats` the reference loop would.  The
    engine owns its :class:`ArrayLRUCache` and the pending-prefetch residency
    array, so it can be kept alive across calls for online serving (the role
    the ``cache=`` argument plays for the reference loop).  Unlike repeated
    reference-loop calls — which reset their function-local pending-prefetch
    set each time, losing prefetch-hit attribution — the engine carries that
    state, so serving a stream over many calls produces exactly the counters
    of one uninterrupted reference replay of the concatenated stream.

    Parameters mirror :func:`repro.caching.replay.replay_table_cache`.
    """

    def __init__(
        self,
        layout: BlockLayout,
        policy: PrefetchPolicy,
        cache_size: Optional[int] = None,
        vector_bytes: int = 128,
        device: Optional[NVMDevice] = None,
        queue_depth: float = 8.0,
        stats: Optional[ReplayStats] = None,
    ) -> None:
        check_positive(vector_bytes, "vector_bytes")
        block_bytes = layout.vectors_per_block * vector_bytes
        if stats is None:
            stats = ReplayStats(vector_bytes=vector_bytes, block_bytes=block_bytes)
        elif (stats.vector_bytes, stats.block_bytes) != (vector_bytes, block_bytes):
            raise ValueError("existing stats were created with a different geometry")
        capacity = layout.num_vectors if cache_size is None else int(cache_size)
        self.layout = layout
        self.policy = policy
        self.cache = ArrayLRUCache(capacity, layout.num_vectors)
        self.stats = stats
        self.device = device
        self.queue_depth = float(queue_depth)
        # Vectors currently resident because of a prefetch and not yet demanded.
        self._pending = np.zeros(layout.num_vectors, dtype=bool)
        self._num_pending = 0
        # Hot-path views of the layout (id -> block, physical order).
        self._block_arr = layout.block_of(np.arange(layout.num_vectors, dtype=np.int64))
        self._order = layout.order
        self._vectors_per_block = layout.vectors_per_block
        self._num_vectors = layout.num_vectors
        # Policy capabilities resolved once (see PrefetchPolicy class attrs).
        self._never_admits = bool(policy.never_admits)
        self._always_top = bool(policy.always_top_positions)
        self._skip_record = (
            type(policy).record_access is PrefetchPolicy.record_access
            and type(policy).record_access_batch is PrefetchPolicy.record_access_batch
        )
        # A policy that implements only the batch hook must still observe
        # demand misses: route them through record_access_batch.
        self._record_miss_batched = (
            type(policy).record_access is PrefetchPolicy.record_access
            and type(policy).record_access_batch is not PrefetchPolicy.record_access_batch
        )
        # Per-block admission cache for policies whose admit decisions are
        # constant over the replay: block id -> (positions, admit mask).
        self._static_admit = bool(policy.admit_is_static)
        self._block_admit: dict = {}

    # ---------------------------------------------------------------- replay
    def replay(self, queries: Iterable[np.ndarray]) -> ReplayStats:
        """Replay an iterable of id arrays and return the accumulated stats.

        Query boundaries carry no state in the replay semantics, so the whole
        stream is concatenated and processed as one array — hit runs then
        span query boundaries, which is where the bulk processing pays most.
        """
        arrays = [np.asarray(query, dtype=np.int64) for query in queries]
        if not arrays:
            return self.stats
        self.replay_query(np.concatenate(arrays) if len(arrays) > 1 else arrays[0])
        return self.stats

    def replay_query(self, ids: npt.ArrayLike, validate: bool = True) -> None:
        """Replay one query (an id array) against the cache.

        ``validate=False`` skips the per-query id range check when the caller
        (e.g. :func:`replay_table_cache_multi`) has already performed it.
        """
        ids = np.asarray(ids, dtype=np.int64)
        n = int(ids.size)
        if n == 0:
            return
        if validate and (int(ids.min()) < 0 or int(ids.max()) >= self._num_vectors):
            raise IndexError(
                f"vector ids must be in [0, {self._num_vectors}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )
        stats = self.stats
        cache = self.cache
        resident = cache._resident
        pending = self._pending
        policy = self.policy
        skip_record = self._skip_record
        # The residency gather is bounded by an adaptive window that tracks
        # the typical hit-run length: it doubles while whole windows hit and
        # halves on every miss, so miss-heavy stretches pay O(run) per scan
        # instead of O(window), and hit-heavy stretches scan in big strides.
        window = 64
        i = 0
        while i < n:
            upper = i + window
            if upper > n:
                upper = n
            tail_res = resident[ids[i:upper]]
            j_rel = int(tail_res.argmin())  # first False, or 0 if all True
            if tail_res[j_rel]:
                j = upper
                if window < 8192:
                    window <<= 1
            else:
                j = i + j_rel
                if window > 32:
                    window >>= 1
            if j > i:
                # Maximal run of hits: residency cannot change inside it, so
                # the whole run is counted, recorded and promoted in bulk.
                run = ids[i:j]
                count = j - i
                stats.lookups += count
                stats.hits += count
                if not skip_record:
                    policy.record_access_batch(run)
                if self._num_pending:
                    pend = pending[run]
                    if pend.any():
                        hit_pending = np.unique(run[pend])
                        stats.prefetch_hits += int(hit_pending.size)
                        pending[hit_pending] = False
                        self._num_pending -= int(hit_pending.size)
                cache.promote_batch(run)
                i = j
                if i >= n:
                    break
                if j == upper:
                    continue  # pure window boundary, not a classified miss
            # Demand miss: read the block holding the vector.
            vid = int(ids[i])
            stats.lookups += 1
            if not skip_record:
                if self._record_miss_batched:
                    policy.record_access_batch(ids[i : i + 1])
                else:
                    policy.record_access(vid)
            stats.misses += 1
            if self.device is not None:
                stats.total_latency_us += self.device.charge_read(
                    int(self._block_arr[vid]), queue_depth=self.queue_depth
                )
            self._process_miss(vid)
            i += 1

    # ---------------------------------------------------------------- private
    def _process_miss(self, vid: int) -> None:
        """Insert the demanded vector and run bulk prefetch admission.

        The demand vector is inserted *first* (exactly the reference order),
        so the block-residency gather that follows sees any eviction the
        demand insert caused — an initially-resident neighbour evicted here
        re-enters the candidate set naturally, and the demand vector itself is
        excluded from the candidates by its own residency.
        """
        cache = self.cache
        stats = self.stats
        capacity = cache.capacity
        if capacity == 0:
            # Nothing is ever stored: inserts are no-ops and no admission is
            # observable (admit is pure), exactly as in the reference loop.
            return
        # Demand insertion at the top of the queue, evicting if needed.
        if cache._live >= capacity:
            evicted = cache._evict_one()
            stats.evictions += 1
            if self._pending[evicted]:
                self._pending[evicted] = False
                self._num_pending -= 1
                stats.prefetch_evicted_unused += 1
        cache.stamp_top(vid)
        if self._pending[vid]:  # defensive: pending implies resident
            self._pending[vid] = False
            self._num_pending -= 1
        if self._never_admits:
            return

        # Offer the rest of the block to the prefetch policy, in slot order.
        # The demand vector is resident now, so its own residency excludes it
        # from the candidates (matching the reference loop's explicit check).
        bid = int(self._block_arr[vid])
        start = bid * self._vectors_per_block
        neighbours = self._order[start : start + self._vectors_per_block]
        if self._static_admit:
            entry = self._block_admit.get(bid)
            if entry is None:
                positions, admit_ok = self._admit_positions(neighbours)
                entry = (positions, admit_ok, bool(admit_ok.any()))
                self._block_admit[bid] = entry
            positions, admit_ok, any_admits = entry
            if not any_admits:
                return
        else:
            positions, admit_ok = self._admit_positions(neighbours)
        res_mask = cache._resident[neighbours]
        adm_mask = admit_ok > res_mask  # admit_ok & ~res_mask in one ufunc
        admitted = neighbours[adm_mask]
        m = int(admitted.size)
        if m == 0:
            return
        live = cache._live
        excess = live + m - capacity
        all_top = self._always_top
        if not all_top:
            pos = positions[adm_mask]
            all_top = not bool(np.any(pos != 0.0))

        if excess <= 0:
            # No eviction can occur in the admission sweep: stamp in bulk.
            if all_top:
                prios = None
            else:
                bottom = cache._min_priority()
                tops = cache._clock + 1.0 + np.arange(m, dtype=np.float64)
                # Same expression (and float op order) as LRUCache.insert.
                prios = tops - pos * (tops - bottom) - pos * 1e-9
                if not bool(np.all(prios > bottom)):
                    # A priority would land at or below the current queue
                    # bottom, so later insertions would see a different
                    # bottom: sequencing matters — take the exact path.
                    self._admit_sequential(vid, neighbours, positions)
                    return
            cache.stamp_bulk(admitted, prios)
            stats.prefetch_admitted += m
            self._pending[admitted] = True
            self._num_pending += m
            return

        if not all_top:
            # Interpolated insertions with evictions interact through the
            # moving queue bottom: take the exact sequential path.
            self._admit_sequential(vid, neighbours, positions)
            return

        self._admit_bulk_evicting(vid, neighbours, res_mask, adm_mask, admitted, positions, excess)

    def _admit_positions(self, neighbours: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One ``admit_batch`` call: the positions and the not-rejected mask.

        Positions outside ``[0, 1]`` raise the ``ValueError`` the reference
        loop raises from ``LRUCache.insert`` (NaN, a rejection, compares
        false on both sides).
        """
        positions = np.asarray(self.policy.admit_batch(neighbours), dtype=np.float64)
        out_of_range = (positions < 0.0) | (positions > 1.0)
        if out_of_range.any():
            check_fraction(float(positions[out_of_range][0]), "position")
        return positions, ~np.isnan(positions)

    def _admit_bulk_evicting(
        self,
        vid: int,
        neighbours: np.ndarray,
        res_mask: np.ndarray,
        adm_mask: np.ndarray,
        admitted: np.ndarray,
        positions: np.ndarray,
        excess: int,
    ) -> None:
        """Top-of-queue admission sweep when evictions are required.

        All insertions stamp fresh (maximal) priorities, so the evicted set is
        the ``excess`` smallest priorities of the union of the old entries and
        the new stamps — old entries in priority order first, then the new
        stamps in insertion order.  The one way sequencing can still leak into
        the result is the *flip* hazard: an eviction may remove an
        initially-resident block neighbour before the reference loop would
        have examined it, turning a skip into an admission.  The old victims
        are therefore only peeked at first; a detected flip (or victims the
        stamp log cannot name by itself) defers to the exact sequential path
        with nothing to undo.
        """
        cache = self.cache
        stats = self.stats
        pending = self._pending
        live = cache._live
        num_old = excess if excess < live else live
        victims = cache.peek_oldest(num_old)
        if victims is None:
            self._admit_sequential(vid, neighbours, positions)
            return
        old_prios, old_keys, log_end = victims

        # Flip detection: admission j evicts once live + j reaches capacity,
        # so the k-th eviction happens while examination stands at the block
        # slot of admission first + k; an initially-resident neighbour at a
        # later slot that gets evicted here would be re-examined (and possibly
        # admitted) by the reference loop.  The peeked priorities are the
        # globally smallest, so comparing against the youngest of them rules
        # out any overlap with the block's residents in one vector op.
        res_nb = neighbours[res_mask]
        if old_prios[-1] >= cache._prio[res_nb].min():
            rpos = {
                int(key): int(index)
                for index, key in zip(np.flatnonzero(res_mask), res_nb)
                if key != vid
            }
            if rpos:
                apos = np.flatnonzero(adm_mask)
                first = cache.capacity - live
                if first < 0:
                    first = 0
                admit = self.policy.admit
                for k, key in enumerate(old_keys.tolist()):
                    px = rpos.get(key)
                    if px is None:
                        continue
                    if px > int(apos[first + k]) and admit(key) is not None:
                        # Genuine flip: the reference loop would have
                        # admitted this neighbour after its eviction.
                        self._admit_sequential(vid, neighbours, positions)
                        return

        # Commit the old evictions.
        cache.evict_peeked(old_keys, log_end)
        stats.evictions += num_old
        if self._num_pending:
            unused = int(np.count_nonzero(pending[old_keys]))
            if unused:
                pending[old_keys] = False
                self._num_pending -= unused
                stats.prefetch_evicted_unused += unused

        # Evictions beyond the old entries fall on the admissions themselves
        # (cache-all churn with a cache smaller than a block): with every
        # older entry gone, the first admissions are pushed out again by the
        # later ones, in insertion order.  They consume a clock tick and the
        # counters of an unused prefetch each, but are never stored.
        stats.prefetch_admitted += int(admitted.size)
        extra = excess - num_old
        if extra > 0:
            cache._clock += float(extra)
            cache._evictions += extra
            stats.evictions += extra
            stats.prefetch_evicted_unused += extra
            admitted = admitted[extra:]
        cache.stamp_bulk(admitted)
        pending[admitted] = True
        self._num_pending += int(admitted.size)

    def _admit_sequential(
        self, vid: int, neighbours: np.ndarray, positions: np.ndarray
    ) -> None:
        """Per-vector admission over the array cache, in slot order.

        Admission positions were precomputed in one ``admit_batch`` call
        (``admit`` is pure, so the extra calls for vectors that turn out to be
        resident are unobservable); residency is rechecked per vector because
        evictions triggered by earlier insertions can change it mid-block.
        """
        cache = self.cache
        stats = self.stats
        for nb, position in zip(neighbours.tolist(), positions.tolist()):
            if nb == vid or cache._resident[nb]:
                continue
            if position != position:  # NaN: rejected
                continue
            evicted = cache.insert_at(nb, position)
            stats.prefetch_admitted += 1
            self._pending[nb] = True
            self._num_pending += 1
            if evicted is not None:
                stats.evictions += 1
                if self._pending[evicted]:
                    self._pending[evicted] = False
                    self._num_pending -= 1
                    stats.prefetch_evicted_unused += 1

    def reset(self) -> None:
        """Clear the cache and pending-prefetch state (stats are kept)."""
        self.cache.clear()
        self._pending[:] = False
        self._num_pending = 0

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
        self.layout = layout
        self._block_arr = layout.block_of(np.arange(layout.num_vectors, dtype=np.int64))
        self._order = layout.order
        self._block_admit = {}


def replay_table_cache_batched(
    queries: Iterable[np.ndarray],
    layout: BlockLayout,
    policy: PrefetchPolicy,
    engine: Optional[BatchReplayEngine] = None,
    cache_size: Optional[int] = None,
    vector_bytes: int = 128,
    device: Optional[NVMDevice] = None,
    queue_depth: float = 8.0,
    stats: Optional[ReplayStats] = None,
) -> ReplayStats:
    """Batched drop-in for :func:`repro.caching.replay.replay_table_cache`.

    Produces bit-identical :class:`~repro.caching.replay.ReplayStats` to the
    reference loop.  Pass an existing ``engine`` to keep serving across calls
    (the batched analogue of the reference loop's ``cache=`` argument).
    """
    if engine is None:
        engine = BatchReplayEngine(
            layout,
            policy,
            cache_size=cache_size,
            vector_bytes=vector_bytes,
            device=device,
            queue_depth=queue_depth,
            stats=stats,
        )
    elif stats is not None and stats is not engine.stats:
        raise ValueError("pass stats either to the engine or to this call, not both")
    return engine.replay(queries)


def replay_table_cache_multi(
    queries: Iterable[np.ndarray],
    layout: BlockLayout,
    policies: Sequence[PrefetchPolicy],
    cache_sizes: Sequence[Optional[int]],
    vector_bytes: int = 128,
) -> List[ReplayStats]:
    """Replay one stream through several independent caches in a single pass.

    The i-th result is bit-identical to replaying ``queries`` through policy
    ``policies[i]`` with cache size ``cache_sizes[i]`` on its own, but the
    stream is walked once and the per-query id conversion and block gather are
    shared across all caches.  This is the kernel behind the miniature-cache
    tuner's single-pass multi-threshold mode.
    """
    if len(policies) != len(cache_sizes):
        raise ValueError("policies and cache_sizes must have the same length")
    engines = [
        BatchReplayEngine(layout, policy, cache_size=size, vector_bytes=vector_bytes)
        for policy, size in zip(policies, cache_sizes)
    ]
    arrays = [np.asarray(query, dtype=np.int64) for query in queries]
    if not arrays:
        return [engine.stats for engine in engines]
    ids = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= layout.num_vectors):
        raise IndexError(
            f"vector ids must be in [0, {layout.num_vectors}), got range "
            f"[{ids.min()}, {ids.max()}]"
        )
    for engine in engines:
        engine.replay_query(ids, validate=False)
    return [engine.stats for engine in engines]
