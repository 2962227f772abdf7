"""Interleaved multi-table store replay with sharded worker processes.

A production request touches *every* embedding table of the model at once,
yet :func:`repro.simulation.runner.simulate_store` historically replayed the
tables one at a time.  This module supplies the store-level replay engine
that walks the request stream **once**, fanning each request's ids out across
all tables, and optionally shards the tables across worker processes for
multi-core scaling.

Schedule-equivalence invariant
------------------------------
Per-table replay state — the engine's cache (see :mod:`repro.caching.engine`),
the prefetch policy, the pending-prefetch set and the NVM device — is fully
independent across tables.  Any replay schedule that preserves *each table's
own id stream order* therefore produces bit-identical per-table
:class:`~repro.caching.replay.ReplayStats`:

* the request-interleaved schedule (table A request 0, table B request 0,
  table A request 1, ...) equals the table-sequential schedule (all of A,
  then all of B);
* flushing accumulated ids per table once per *chunk* of requests (the
  batching that recovers the vectorized engine's hit-run speed) equals
  flushing per request;
* replaying disjoint table shards in separate worker processes and merging
  the per-table results equals replaying everything in one process.

``tests/test_interleaved_equivalence.py`` pins all three equalities against
sequential :func:`~repro.simulation.runner.simulate_store` across all six
prefetch policies and degenerate cache sizes.

This generalises the engine-sharing idea of
:func:`repro.caching.engine.replay_table_cache_multi` — one walk over a
stream feeding many independent engines — from many caches over one table to
many tables over one request stream.

Worker sharding
---------------
:func:`replay_store_interleaved` greedily bin-packs tables onto
``num_workers`` shards by lookup volume, replays each shard in a forked
worker process holding per-worker :class:`~repro.caching.engine.BatchReplayEngine`
instances, and ships each table's finished engine (cache state, policy
state, device counters and stats) back to the parent, so continued serving
after a sharded replay is indistinguishable from a single-process replay.
With ``num_workers=1`` everything runs inline in the calling process on the
caller's own engine objects.

Baselines
---------
Each table's no-prefetch baseline is computed inside the same shard (so
baseline work parallelises with the candidate replay).  For the common
placement-study shape — an effectively unlimited cache — the baseline is
recognised analytically: under LRU with no prefetching and a cache at least
as large as the table, a lookup misses exactly on the first occurrence of
its id, so the full ReplayStats follow from one ``np.unique`` call
(:func:`unlimited_noprefetch_stats`), bit-identical to replaying it.

Run ``benchmarks/bench_store_replay.py`` for the throughput comparison of
the per-request serving path, the table-sequential path and this engine
(results land in ``BENCH_store_replay.json``).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.caching.engine import BatchReplayEngine, replay_table_cache_batched
from repro.caching.policies import NoPrefetchPolicy
from repro.caching.replay import ReplayStats
from repro.nvm.block import BlockLayout
from repro.workloads.trace import ModelTrace

#: Requests accumulated per table between engine flushes.  Large enough that
#: every flush replays a solid batch (hit runs span request boundaries),
#: small enough that the interleaving stays fine-grained.
DEFAULT_CHUNK_REQUESTS = 64


# ---------------------------------------------------------------------- stream
def iter_store_requests(model_trace: ModelTrace) -> Iterator[Dict[str, np.ndarray]]:
    """Zip a :class:`ModelTrace` into a stream of multi-table requests.

    Request ``i`` maps each table name to that table's ``i``-th query;
    tables with fewer queries simply drop out of later requests.  This is
    the representative store-level request stream: one production request
    reads from every table at once.
    """
    tables: List[Tuple[str, List[np.ndarray]]] = [
        (name, trace.queries) for name, trace in model_trace.items()
    ]
    num_requests = max((len(queries) for _, queries in tables), default=0)
    for i in range(num_requests):
        yield {name: queries[i] for name, queries in tables if i < len(queries)}


# ------------------------------------------------------------------- baselines
def unlimited_noprefetch_stats(
    queries: Iterable[np.ndarray], layout: BlockLayout, vector_bytes: int = 128
) -> ReplayStats:
    """Analytic no-prefetch baseline for an effectively unlimited cache.

    With no prefetching and a cache that can hold the whole table, nothing
    is ever evicted, so a lookup misses exactly on the *first* occurrence of
    its id and hits on every later one.  The resulting counters are
    bit-identical to replaying the stream through
    :func:`repro.caching.replay.replay_table_cache` with
    :class:`~repro.caching.policies.NoPrefetchPolicy` and an unlimited
    cache, at the cost of one ``np.unique`` instead of one simulated miss
    per distinct id.
    """
    arrays = [np.asarray(query, dtype=np.int64) for query in queries]
    stats = ReplayStats(
        vector_bytes=vector_bytes,
        block_bytes=layout.vectors_per_block * vector_bytes,
    )
    if not arrays:
        return stats
    ids = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= layout.num_vectors):
        raise IndexError(
            f"vector ids must be in [0, {layout.num_vectors}), got range "
            f"[{ids.min()}, {ids.max()}]"
        )
    unique = int(np.unique(ids).size)
    stats.lookups = int(ids.size)
    stats.misses = unique
    stats.hits = stats.lookups - unique
    return stats


def baseline_stats_for(
    queries: Sequence[np.ndarray],
    layout: BlockLayout,
    cache_size: Optional[int],
    vector_bytes: int = 128,
) -> ReplayStats:
    """The no-prefetch baseline for one table, analytic when possible.

    ``cache_size=None`` or any capacity >= the table size takes the
    analytic unlimited path; limited caches are replayed through the
    batched engine.  Either way the counters are bit-identical to the
    reference loop.
    """
    if cache_size is None or int(cache_size) >= layout.num_vectors:
        return unlimited_noprefetch_stats(queries, layout, vector_bytes=vector_bytes)
    return replay_table_cache_batched(
        queries,
        layout,
        NoPrefetchPolicy(),
        cache_size=cache_size,
        vector_bytes=vector_bytes,
    )


# ------------------------------------------------------------------- replayer
class InterleavedStoreReplayer:
    """Fan multi-table requests out across per-table batch replay engines.

    The replayer owns no state beyond the engine mapping: every counter
    lives in the engines' :class:`~repro.caching.replay.ReplayStats`, so it
    can be layered over a :class:`~repro.core.bandana.BandanaStore`'s
    serving engines (the per-request ``lookup_request`` path) or over
    throwaway engines inside a replay worker.
    """

    def __init__(self, engines: Mapping[str, BatchReplayEngine]) -> None:
        self._engines = dict(engines)

    @property
    def engines(self) -> Dict[str, BatchReplayEngine]:
        """The per-table engines (not copied)."""
        return self._engines

    def _engine(self, name: str) -> BatchReplayEngine:
        try:
            return self._engines[name]
        except KeyError:
            raise KeyError(
                f"unknown table {name!r}; known tables: {sorted(self._engines)}"
            ) from None

    def replay_request(self, request: Mapping[str, Iterable[int]]) -> None:
        """Replay one multi-table request (mapping table name -> ids)."""
        for name, raw_ids in request.items():
            engine = self._engine(name)
            ids = np.asarray(raw_ids, dtype=np.int64)
            if ids.size:
                engine.replay_query(ids)

    def replay_requests(
        self,
        requests: Iterable[Mapping[str, Iterable[int]]],
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    ) -> None:
        """Replay a request stream, flushing per table once per chunk.

        Accumulating ``chunk_requests`` requests before flushing each
        table's ids in one ``replay_query`` call recovers the vectorized
        engine's batch speed (hit runs span request boundaries) while
        keeping the schedule request-interleaved.  By the module's
        schedule-equivalence invariant the counters are bit-identical for
        every chunk size, including ``1`` (pure per-request replay).
        """
        if chunk_requests < 1:
            raise ValueError("chunk_requests must be >= 1")
        pending: Dict[str, List[np.ndarray]] = {name: [] for name in self._engines}
        buffered = 0
        for request in requests:
            for name, raw_ids in request.items():
                ids = np.asarray(raw_ids, dtype=np.int64)
                if ids.size:
                    self._engine(name)  # validate the name even when buffering
                    pending[name].append(ids)
            buffered += 1
            if buffered >= chunk_requests:
                self._flush(pending)
                buffered = 0
        if buffered:
            self._flush(pending)

    def _flush(self, pending: Dict[str, List[np.ndarray]]) -> None:
        for name, arrays in pending.items():
            if not arrays:
                continue
            ids = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
            self._engines[name].replay_query(ids)
            arrays.clear()


# ------------------------------------------------------------------- sharding
@dataclass
class TableReplayTask:
    """One table's share of a store replay.

    The task carries the table's (possibly warm) serving engine, the
    table's query stream, and enough information to compute the
    no-prefetch baseline alongside the candidate replay.
    """

    name: str
    engine: BatchReplayEngine
    queries: List[np.ndarray]
    include_baseline: bool = True
    baseline_cache_size: Optional[int] = None
    vector_bytes: int = 128

    @property
    def num_lookups(self) -> int:
        """Total ids in the task's query stream (the sharding weight)."""
        return int(sum(query.size for query in self.queries))


@dataclass
class TableReplayResult:
    """One table's outcome: the finished engine plus baseline stats."""

    name: str
    engine: BatchReplayEngine
    stats: ReplayStats
    baseline_stats: Optional[ReplayStats] = None


def shard_tasks(
    tasks: Sequence[TableReplayTask], num_workers: int
) -> List[List[TableReplayTask]]:
    """Greedily bin-pack tables onto at most ``num_workers`` shards.

    Tables are assigned largest-first (by lookup volume, name as the
    deterministic tie-break) to the currently lightest shard, so the
    slowest worker gets as little excess as a greedy split allows.  Every
    returned shard is non-empty.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    tasks = list(tasks)
    num_shards = min(num_workers, len(tasks))
    if num_shards <= 1:
        return [tasks] if tasks else []
    order = sorted(tasks, key=lambda task: (-task.num_lookups, task.name))
    shards: List[List[TableReplayTask]] = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    for task in order:
        index = loads.index(min(loads))
        shards[index].append(task)
        loads[index] += max(task.num_lookups, 1)
    return [shard for shard in shards if shard]


def _replay_shard(
    payload: Tuple[List[TableReplayTask], int]
) -> List[TableReplayResult]:
    """Replay one shard's tables, request-interleaved (runs in a worker).

    Walks the shard's request stream once in chunks of ``chunk_requests``
    requests, flushing each table's accumulated ids through its engine per
    chunk — the same schedule :meth:`InterleavedStoreReplayer.replay_requests`
    produces, iterated directly over the per-table query lists so the hot
    loop builds no per-request dictionaries.  Must stay a module-level
    function so worker processes can import it under every multiprocessing
    start method.
    """
    tasks, chunk_requests = payload
    num_requests = max((len(task.queries) for task in tasks), default=0)
    for start in range(0, num_requests, chunk_requests):
        stop = start + chunk_requests
        for task in tasks:
            chunk = task.queries[start:stop]
            if not chunk:
                continue
            ids = np.concatenate(chunk) if len(chunk) > 1 else chunk[0]
            if ids.size:
                task.engine.replay_query(np.asarray(ids, dtype=np.int64))
    results = []
    for task in tasks:
        baseline = None
        if task.include_baseline:
            baseline = baseline_stats_for(
                task.queries,
                task.engine.layout,
                task.baseline_cache_size,
                vector_bytes=task.vector_bytes,
            )
        results.append(
            TableReplayResult(
                name=task.name,
                engine=task.engine,
                stats=task.engine.stats,
                baseline_stats=baseline,
            )
        )
    return results


#: Copy-on-write hand-off to forked workers: (shards, chunk_requests) is
#: parked here while the fork pool is alive, so the query arrays reach the
#: children through the inherited address space instead of being pickled
#: through the result pipes (several MB per shard for long streams).  The
#: lock serialises concurrent sharded replays in one process — without it a
#: second caller could overwrite the payload between another caller's park
#: and fork, making its workers replay the wrong tables.
_FORK_PAYLOAD: Optional[Tuple[List[List[TableReplayTask]], int]] = None
_FORK_PAYLOAD_LOCK = threading.Lock()


def _replay_shard_by_index(shard_index: int) -> List[TableReplayResult]:
    """Fork-pool entry point: look the shard up in the inherited payload."""
    shards, chunk_requests = _FORK_PAYLOAD
    return _replay_shard((shards[shard_index], chunk_requests))


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, copy-on-write inputs) where it is safe.

    Only Linux qualifies: macOS lists fork as available but forking after
    numpy/ObjC frameworks initialise is unsafe there (the reason CPython
    made spawn the macOS default), so everywhere else the default start
    method and the pickling hand-off are used instead.
    """
    methods = multiprocessing.get_all_start_methods()
    use_fork = sys.platform == "linux" and "fork" in methods
    return multiprocessing.get_context("fork" if use_fork else None)


def replay_store_interleaved(
    tasks: Sequence[TableReplayTask],
    num_workers: int = 1,
    chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
) -> Dict[str, TableReplayResult]:
    """Replay a whole store's request stream, sharding tables over workers.

    With ``num_workers=1`` (or a single table) the replay runs inline on
    the caller's engine objects — the store's serving engines keep
    accumulating in place.  With more workers, tables are bin-packed onto
    worker processes; each worker replays its shard request-interleaved
    and ships the finished engines back, so the merged result (including
    cache contents, policy state and device counters) is bit-identical to
    the inline replay.
    """
    tasks = list(tasks)
    if not tasks:
        return {}
    seen = set()
    for task in tasks:
        if task.name in seen:
            raise ValueError(f"duplicate table {task.name!r} in replay tasks")
        seen.add(task.name)
    shards = shard_tasks(tasks, num_workers)
    if len(shards) == 1:
        results = _replay_shard((shards[0], chunk_requests))
    else:
        results = [
            result
            for shard in _map_shards(shards, chunk_requests)
            for result in shard
        ]
    return {result.name: result for result in results}


def _map_shards(
    shards: List[List[TableReplayTask]], chunk_requests: int
) -> List[List[TableReplayResult]]:
    """Run one worker process per shard and collect the per-shard results."""
    context = _pool_context()
    if context.get_start_method() == "fork":
        global _FORK_PAYLOAD
        # The payload stays parked (and the lock held) until the map
        # returns: Pool may fork *replacement* workers mid-run if one dies,
        # and those must still snapshot this replay's payload — not None,
        # and not a concurrent replay's shards.
        with _FORK_PAYLOAD_LOCK:
            _FORK_PAYLOAD = (shards, chunk_requests)
            try:
                with context.Pool(processes=len(shards)) as pool:
                    return pool.map(_replay_shard_by_index, range(len(shards)))
            finally:
                _FORK_PAYLOAD = None
    with context.Pool(processes=len(shards)) as pool:
        return pool.map(
            _replay_shard, [(shard, chunk_requests) for shard in shards]
        )


def merge_replay_stats(results: Mapping[str, TableReplayResult]) -> ReplayStats:
    """Element-wise sum of the per-table candidate stats (store aggregate)."""
    merged: Optional[ReplayStats] = None
    for result in results.values():
        merged = result.stats if merged is None else merged.merge(result.stats)
    return merged if merged is not None else ReplayStats()
