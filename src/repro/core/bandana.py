"""The end-to-end Bandana store.

:class:`BandanaStore` assembles the paper's full pipeline:

1. **Placement** — each embedding table is partitioned onto 4 KB NVM blocks by
   SHP trained on the table's training trace.
2. **DRAM split** — the total DRAM cache budget is divided across tables
   greedily from per-table hit-rate curves (the paper's Dynacache-style
   static assignment).
3. **Admission tuning** — each table's prefetch-admission threshold ``t`` is
   chosen by miniature-cache simulation at the table's assigned cache size,
   replaying a held-out tail of the training trace that neither the
   placement nor the admission counts were trained on.
4. **Serving** — lookups hit the per-table DRAM cache first; a miss reads
   the owning 4 KB block from NVM (counted in the table's
   :class:`~repro.caching.replay.ReplayStats` and priced by the
   :class:`~repro.nvm.latency.NVMLatencyModel`) and the admission policy
   decides which of the block's other vectors enter the cache.  Every
   serving call — single queries, batches, multi-table requests and
   :func:`repro.simulation.simulate_store` — runs on each table's
   :class:`~repro.caching.engine.BatchReplayEngine`, which owns the table's
   DRAM residency.

Each table's ``ReplayStats`` is the store's one tally of lookups, block reads
and unloaded NVM time — everything the paper's metrics (effective bandwidth,
hit rates, device latency) are computed from.  The store can optionally
return the actual embedding values when built with an :class:`~repro.embeddings.EmbeddingModel`.

The store is also the unit a cluster deploys, and the one place per-table
serving state is built and reset: :meth:`BandanaStore.engine` builds a
table's engine, :meth:`BandanaStore.shard` is one node's store (the tables
it owns blocks of, on the same layouts, with reset policy copies and cache
budgets scaled to its share), and :meth:`BandanaStore.cold_restart` is what
that node loses in a crash (:mod:`repro.cluster`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np
import numpy.typing as npt

from repro.caching.allocation import allocate_dram_budget
from repro.caching.engine import BatchReplayEngine, replay_table_cache_batched
from repro.caching.miniature import MiniatureCacheTuner
from repro.caching.policies import (
    AccessThresholdPolicy,
    NoPrefetchPolicy,
    PrefetchPolicy,
)
from repro.caching.replay import ReplayStats
from repro.caching.stack_distance import HitRateCurve, hit_rate_curve
from repro.core.config import BandanaConfig, TableCacheConfig
from repro.embeddings.model import EmbeddingModel
from repro.nvm.block import BlockLayout
from repro.nvm.latency import NVMLatencyModel
from repro.partitioning.shp import SHPPartitioner
from repro.utils.validation import (
    check_array_1d_ints,
    check_id_range,
    check_int_at_least,
)
from repro.workloads.characterization import access_counts
from repro.workloads.trace import ModelTrace, Trace

#: Share of each training trace's queries (the head) that trains placement and
#: admission counts when thresholds are tuned; the tuner replays the rest.
TUNING_HOLDOUT = 0.5


def _fresh_stats(config: BandanaConfig) -> ReplayStats:
    """Zeroed stats with the store's vector and block geometry."""
    return ReplayStats(vector_bytes=config.vector_bytes, block_bytes=config.block_bytes)


@dataclass
class BandanaTableState:
    """Everything the store keeps per embedding table."""

    name: str
    layout: BlockLayout
    policy: PrefetchPolicy
    cache_config: TableCacheConfig
    access_counts: np.ndarray
    stats: ReplayStats = field(default_factory=ReplayStats)
    #: The serving engine (:meth:`BandanaStore.engine`), created on first
    #: use; it owns the table's DRAM residency and accumulates into ``stats``.
    engine: Optional[BatchReplayEngine] = None


class BandanaStore:
    """NVM-backed embedding storage with locality-aware placement and caching.

    Use :meth:`BandanaStore.build` to construct a store from a training trace;
    the constructor itself only wires together already-resolved per-table
    state (useful for tests and custom pipelines).
    """

    def __init__(
        self,
        config: BandanaConfig,
        tables: Dict[str, BandanaTableState],
        embedding_model: Optional[EmbeddingModel] = None,
    ) -> None:
        self.config = config
        self.tables = tables
        self.embedding_model = embedding_model

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        training_trace: ModelTrace,
        config: Optional[BandanaConfig] = None,
        embedding_model: Optional[EmbeddingModel] = None,
        num_vectors: Optional[Mapping[str, int]] = None,
    ) -> "BandanaStore":
        """Build a store from a training trace.

        Trains SHP on each table, splits the DRAM budget greedily on the
        tables' hit-rate curves, then (with ``config.tune_thresholds``)
        picks each table's admission threshold with miniature caches.

        Parameters
        ----------
        training_trace:
            Per-table traces.  The hit-rate curves of the DRAM split are
            derived from each whole trace.  Untuned, the whole trace also
            trains the placement and the admission counts.  Tuned, a table's
            trace is split at :data:`TUNING_HOLDOUT`: the head trains the
            placement and the counts, and the tuner replays the held-out
            tail (a table with a single query uses its whole trace for both).
        config:
            Store configuration; defaults to :class:`BandanaConfig()`.
        embedding_model:
            Optional embedding values, for lookups that return actual vectors.
        num_vectors:
            Table sizes; defaults to the embedding model's sizes or, failing
            that, the sizes implied by the training trace.  Every key must
            name a table of the training trace, with an integer size.
        """
        config = config or BandanaConfig()
        sizes = cls._resolve_table_sizes(training_trace, embedding_model, num_vectors)

        # The tuner must not replay the trace the counts come from: there
        # "count > 0" would mean "read again in this trace", a look-ahead the
        # live cache does not have.
        fits: Dict[str, Trace] = dict(training_trace.items())
        tunes: Dict[str, Trace] = dict(fits)
        if config.tune_thresholds:
            for name, trace in training_trace.items():
                head, tail = trace.split(TUNING_HOLDOUT)
                if len(head) and len(tail):
                    fits[name], tunes[name] = head, tail

        # 1. placement + per-vector access counts
        partitioner = SHPPartitioner(
            vectors_per_block=config.vectors_per_block,
            num_iterations=config.shp_iterations,
            seed=config.seed,
        )
        layouts: Dict[str, BlockLayout] = {}
        counts: Dict[str, np.ndarray] = {}
        for name, trace in fits.items():
            result = partitioner.partition(sizes[name], trace=trace)
            layouts[name] = result.layout(config.vectors_per_block)
            table_counts = np.zeros(sizes[name], dtype=np.int64)
            table_counts[: trace.num_vectors] = access_counts(trace)
            counts[name] = table_counts

        # 2. DRAM budget split across tables, on the whole training trace
        curves: Dict[str, HitRateCurve] = {
            name: hit_rate_curve(trace) for name, trace in training_trace.items()
        }
        cache_sizes = allocate_dram_budget(curves, config.total_cache_vectors)

        # 3. per-table threshold tuning + state assembly
        tuner = MiniatureCacheTuner(
            sampling_rate=config.mini_cache_sampling_rate,
            seed=config.seed,
            thresholds=config.candidate_thresholds,
            vector_bytes=config.vector_bytes,
        )
        tables: Dict[str, BandanaTableState] = {}
        for name, trace in tunes.items():
            cache_size = cache_sizes[name]
            threshold = config.default_threshold
            if config.tune_thresholds and cache_size > 0 and len(trace) > 0:
                selection = tuner.select_threshold(
                    trace, layouts[name], counts[name], cache_size
                )
                threshold = selection.threshold
            tables[name] = BandanaTableState(
                name=name,
                layout=layouts[name],
                policy=AccessThresholdPolicy(counts[name], threshold),
                cache_config=TableCacheConfig(
                    cache_size_vectors=cache_size, threshold=threshold
                ),
                access_counts=counts[name],
                stats=_fresh_stats(config),
            )
        return cls(config, tables, embedding_model=embedding_model)

    # ---------------------------------------------------------------- serving
    def lookup(
        self, table_name: str, vector_ids: npt.ArrayLike, gather: bool = True
    ) -> Optional[np.ndarray]:
        """Serve one query against one table.

        Runs the cache/prefetch machinery (updating all counters) and returns
        the embedding vectors when the store holds an embedding model, or
        ``None`` in counting-only mode.  ``gather=False`` skips the embedding
        gather even when values are available (counters-only callers like the
        serving simulator measure load, not data).
        """
        state = self._state(table_name)
        ids = self._checked_ids(state, vector_ids)
        if ids.size:
            self.engine(table_name).replay_query(ids, validate=False)
        return self._gather(table_name, ids) if gather else None

    def lookup_batch(
        self, table_name: str, queries: Sequence[Iterable[int]], gather: bool = True
    ) -> Optional[List[np.ndarray]]:
        """Serve a batch of queries against one table in one engine pass.

        Equivalent (counter for counter) to calling :meth:`lookup` per query,
        but the whole batch is one engine call, so hit runs spanning query
        boundaries are processed in bulk.  Returns one embedding array per
        query when the store holds an embedding model, or ``None`` in
        counting-only mode (or when ``gather=False``).
        """
        self._state(table_name)  # an unknown table raises before the ids are read
        id_arrays = [check_array_1d_ints(ids, "vector_ids") for ids in queries]
        non_empty = [ids for ids in id_arrays if ids.size]
        if non_empty:
            self.engine(table_name).replay_query(
                np.concatenate(non_empty) if len(non_empty) > 1 else non_empty[0]
            )
        if gather and self.embedding_model is not None and table_name in self.embedding_model:
            table = self.embedding_model[table_name]
            return [table.gather(ids) for ids in id_arrays]
        return None

    def lookup_request(
        self, request: Mapping[str, Iterable[int]]
    ) -> Dict[str, Optional[np.ndarray]]:
        """Serve one multi-table request (mapping table name → ids).

        Counter for counter the same as calling :meth:`lookup` per table in
        request order, except that the whole request is validated first: an
        unknown table, a non-integer or multi-dimensional id array or an
        out-of-range id raises before any table is served.
        """
        arrays = self._serve_request(request)
        return {name: self._gather(name, ids) for name, ids in arrays.items()}

    def pooled_features(self, request: Mapping[str, Iterable[int]]) -> np.ndarray:
        """Serve a request and return the concatenated sum-pooled features.

        Requires an embedding model; this is the read path a ranking model
        consumes (see :class:`repro.embeddings.RecommendationModel`).  The
        request is validated whole before any table is served, as in
        :meth:`lookup_request`.
        """
        if self.embedding_model is None:
            raise ValueError("pooled_features requires an embedding model")
        return self.embedding_model.pooled_features(self._serve_request(request))

    def engine(self, table_name: str) -> BatchReplayEngine:
        """The table's serving engine, created on first use.

        The one place a serving engine is built: it owns the table's DRAM
        residency and shares the table's ``stats`` object, so all counters
        accumulate on the state.
        """
        state = self._state(table_name)
        if state.engine is None:
            state.engine = BatchReplayEngine(
                state.layout,
                state.policy,
                cache_size=state.cache_config.cache_size_vectors,
                vector_bytes=self.config.vector_bytes,
                device=NVMLatencyModel(block_bytes=self.config.block_bytes),
                stats=state.stats,
            )
        return state.engine

    # ---------------------------------------------------------------- metrics
    def table_stats(self) -> Dict[str, ReplayStats]:
        """Per-table replay statistics for the traffic served so far (live objects)."""
        return {name: state.stats for name, state in self.tables.items()}

    def aggregate_stats(self) -> ReplayStats:
        """Sum of the per-table replay statistics.

        Always a fresh object — never an alias of a table's live stats — so
        callers can snapshot it and diff against a later call (the serving
        simulator's before/after accounting relies on this; an alias would
        silently zero every delta on single-table stores).
        """
        stats = None
        for state in self.tables.values():
            stats = (
                replace(state.stats) if stats is None else stats.merge(state.stats)
            )
        return stats if stats is not None else ReplayStats()

    def effective_bandwidth(self) -> float:
        """Application bytes per NVM byte read over all tables so far."""
        return self.aggregate_stats().effective_bandwidth

    def dram_bytes(self) -> int:
        """DRAM footprint of the configured caches, in bytes."""
        return sum(
            state.cache_config.cache_size_vectors * self.config.vector_bytes
            for state in self.tables.values()
        )

    def swap_layout(self, table_name: str, layout: BlockLayout) -> None:
        """Adopt a new block placement for one table, live.

        Models an online re-partition (the re-partitioning lifecycle of
        :mod:`repro.scenarios.lifecycle`).  DRAM residency survives the swap
        — cache entries are keyed by vector id, which a re-layout of the NVM
        blocks does not invalidate — so only the placement-derived prefetch
        behaviour changes.  Cumulative stats carry over; the layout must
        keep the table's geometry.
        """
        state = self._state(table_name)
        if (layout.num_vectors, layout.vectors_per_block) != (
            state.layout.num_vectors,
            state.layout.vectors_per_block,
        ):
            raise ValueError(
                "swap_layout requires identical geometry: "
                f"({layout.num_vectors} vectors, {layout.vectors_per_block}/block) vs "
                f"({state.layout.num_vectors}, {state.layout.vectors_per_block})"
            )
        state.layout = layout
        if state.engine is not None:
            state.engine.swap_layout(layout)

    def check_tables(self, names: Iterable[str]) -> None:
        """Raise the unknown-table ``KeyError`` for the first name not served.

        Replay entry points call it on a whole trace before any reset or
        lookup, so a rejected trace leaves every counter as it was.
        """
        for name in names:
            self._state(name)

    def reset_serving_state(self) -> None:
        """Clear caches and counters (placement and thresholds are kept)."""
        for state in self.tables.values():
            state.stats = _fresh_stats(self.config)
        self.cold_restart()

    def cold_restart(self) -> None:
        """Lose what a process restart loses: DRAM residency and policy state.

        Every policy is reset and every engine dropped (rebuilt cold on next
        use); placement, cache budgets, thresholds and the cumulative stats
        are kept, so block-read accounting spans the restart.  A cluster node
        restarting after a crash is exactly this, on its shard store.
        """
        for state in self.tables.values():
            state.policy.reset()
            state.engine = None

    def shard(self, owned_blocks: Mapping[str, int]) -> "BandanaStore":
        """A cold store over the tables one cluster node serves blocks of.

        ``owned_blocks`` maps a table to the number of its blocks the node
        serves (over every replica slot it holds); a table it maps to 0 or
        does not name is absent from the shard.  Each shard table shares this
        store's layout and access counts (placement is the table's, not the
        node's), admits by a reset deep copy of its policy, gets its cache
        budget scaled by the owned share of blocks, rounded half-up (a node
        owning every block gets the whole budget), and starts with zeroed
        stats and no engine.  The copied policy reads the host's counts array
        itself, not a copy of it: a node holds no counts of its own.
        """
        tables: Dict[str, BandanaTableState] = {}
        for name, owned in owned_blocks.items():
            state = self._state(name)
            owned = check_int_at_least(owned, 0, f"owned_blocks[{name!r}]")
            if owned == 0:
                continue
            budget = state.cache_config.cache_size_vectors
            num_blocks = state.layout.num_blocks
            if owned < num_blocks:
                budget = int(np.floor(budget * owned / num_blocks + 0.5))
            counts = state.access_counts
            policy = copy.deepcopy(state.policy, {id(counts): counts})
            policy.reset()
            tables[name] = BandanaTableState(
                name=name,
                layout=state.layout,
                policy=policy,
                cache_config=replace(state.cache_config, cache_size_vectors=budget),
                access_counts=state.access_counts,
                stats=_fresh_stats(self.config),
            )
        return BandanaStore(self.config, tables)

    # ------------------------------------------------------------- baselines
    def baseline_stats(
        self, table_name: str, queries: Sequence[np.ndarray]
    ) -> ReplayStats:
        """One table's queries replayed under the paper's baseline policy.

        The baseline caches only demand vectors (no prefetching) in a cold
        cache of the table's size, over the table's layout.  It is the
        denominator of the store's effective-bandwidth *increase*.
        """
        state = self._state(table_name)
        return replay_table_cache_batched(
            queries,
            state.layout,
            NoPrefetchPolicy(),
            cache_size=state.cache_config.cache_size_vectors,
            vector_bytes=self.config.vector_bytes,
        )

    def baseline_block_reads(self, eval_trace: ModelTrace) -> int:
        """Block reads the baseline policy would issue for a whole trace."""
        return sum(
            self.baseline_stats(name, trace.queries).block_reads
            for name, trace in eval_trace.items()
        )

    # ----------------------------------------------------------------- private
    def _gather(self, table_name: str, ids: np.ndarray) -> Optional[np.ndarray]:
        """Embedding values for ``ids``, or ``None`` in counting-only mode."""
        if self.embedding_model is not None and table_name in self.embedding_model:
            return self.embedding_model[table_name].gather(ids)
        return None

    def _checked_ids(self, state: BandanaTableState, raw_ids: npt.ArrayLike) -> np.ndarray:
        """``raw_ids`` as a 1-D ``int64`` array of ids in the table's range."""
        ids = check_array_1d_ints(raw_ids, "vector_ids")
        check_id_range(ids, state.layout.num_vectors)
        return ids

    def _serve_request(self, request: Mapping[str, Iterable[int]]) -> Dict[str, np.ndarray]:
        """Validate a whole multi-table request, then serve it table by table.

        Every table name, id array and id range is checked before the first
        engine runs, so a rejected request leaves every engine and
        counter untouched.  Returns the validated id arrays.
        """
        arrays = {
            name: self._checked_ids(self._state(name), raw_ids)
            for name, raw_ids in request.items()
        }
        for name, ids in arrays.items():
            if ids.size:
                self.engine(name).replay_query(ids, validate=False)
        return arrays

    def _state(self, table_name: str) -> BandanaTableState:
        try:
            return self.tables[table_name]
        except KeyError:
            raise KeyError(
                f"unknown table {table_name!r}; known tables: {sorted(self.tables)}"
            ) from None

    @staticmethod
    def _resolve_table_sizes(
        training_trace: ModelTrace,
        embedding_model: Optional[EmbeddingModel],
        num_vectors: Optional[Mapping[str, int]],
    ) -> Dict[str, int]:
        num_vectors = num_vectors or {}
        known = list(training_trace.tables)
        for name in num_vectors:
            if name not in known:
                raise ValueError(
                    f"num_vectors names table {name!r}, which the training "
                    f"trace does not have (known tables: {known})"
                )
        sizes: Dict[str, int] = {}
        for name, trace in training_trace.items():
            if name in num_vectors:
                sizes[name] = check_int_at_least(
                    num_vectors[name], 1, f"num_vectors[{name!r}]"
                )
            elif embedding_model is not None and name in embedding_model:
                sizes[name] = embedding_model[name].num_vectors
            else:
                sizes[name] = trace.num_vectors
            if sizes[name] < trace.num_vectors:
                raise ValueError(
                    f"table {name!r}: trace references {trace.num_vectors} vectors "
                    f"but the table size is {sizes[name]}"
                )
        return sizes
