"""The end-to-end Bandana store.

:meth:`BandanaStore.build` composes four pure stages, each a public function
returning a plain per-table dict:

1. :func:`tuning_split` — each training trace's (fit, tune) pair: with
   tuning, its head and the held-out tail neither placement nor counts see;
2. :func:`place` — SHP layouts onto 4 KB NVM blocks and access counts, from
   the fit traces;
3. :func:`split_dram` — the DRAM budget split greedily on the whole traces'
   hit-rate curves (the paper's Dynacache-style static assignment);
4. :func:`tune` — each table's prefetch-admission threshold ``t``, by
   miniature-cache simulation of its tune trace at its cache size.

:func:`assemble` turns stage outputs into table state, so a caller may swap a
stage for its own (an oracle) and still get ``build``'s store.  ``build`` is
:meth:`BandanaStore.build_sweep` at one budget; a DRAM sweep places once.
Every serving call (lookups, batches, multi-table requests and
:func:`repro.simulation.simulate_store`) runs on each table's
:class:`~repro.caching.engine.BatchReplayEngine`: a DRAM hit, or a miss that
reads the owning block from NVM and lets the admission policy pick which of
the block's vectors enter the cache.  The engine owns the table's residency and
counts into its :class:`~repro.caching.replay.ReplayStats`, the store's one
tally of lookups, block reads and unloaded NVM time.  With an
:class:`~repro.embeddings.EmbeddingModel`, lookups also return the vectors.

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
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.caching.allocation import allocate_dram_budget
from repro.caching.engine import BatchReplayEngine, replay_table_cache_batched
from repro.caching.miniature import MiniatureCacheTuner
from repro.caching.policies import AccessThresholdPolicy, NoPrefetchPolicy, PrefetchPolicy
from repro.caching.replay import ReplayStats
from repro.caching.stack_distance import hit_rate_curve
from repro.core.config import BandanaConfig, TableCacheConfig
from repro.embeddings.model import EmbeddingModel
from repro.nvm.block import BlockLayout
from repro.nvm.latency import NVMLatencyModel
from repro.partitioning.shp import SHPPartitioner
from repro.utils.validation import check_array_1d_ints, check_id_range, check_int_at_least
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


def tuning_split(
    training_trace: ModelTrace, config: BandanaConfig
) -> Dict[str, Tuple[Trace, Trace]]:
    """Stage 1: per table, the (fit, tune) traces :func:`place` and :func:`tune` read.

    Tuned, a trace splits at :data:`TUNING_HOLDOUT` (a one-query trace is used
    whole for both), as the tuner must not replay the counts' own trace: there
    "count > 0" would mean "read again here", a look-ahead the live cache lacks.
    Untuned, both are the whole trace."""
    splits: Dict[str, Tuple[Trace, Trace]] = {}
    for name, trace in training_trace.items():
        head, tail = trace.split(TUNING_HOLDOUT) if config.tune_thresholds else (trace, trace)
        splits[name] = (head, tail) if len(head) and len(tail) else (trace, trace)
    return splits


def place(
    splits: Mapping[str, Tuple[Trace, Trace]], sizes: Mapping[str, int], config: BandanaConfig
) -> Dict[str, Tuple[BlockLayout, np.ndarray]]:
    """Stage 2: per table, the SHP layout and per-vector access counts of its fit trace."""
    partitioner = SHPPartitioner(config.vectors_per_block, config.shp_iterations, config.seed)
    placements: Dict[str, Tuple[BlockLayout, np.ndarray]] = {}
    for name, (fit, _) in splits.items():
        result = partitioner.partition(sizes[name], trace=fit)
        counts = np.zeros(sizes[name], dtype=np.int64)
        counts[: fit.num_vectors] = access_counts(fit)
        placements[name] = (result.layout(config.vectors_per_block), counts)
    return placements


def split_dram(training_trace: ModelTrace, config: BandanaConfig) -> Dict[str, int]:
    """Stage 3: per table, its cache size in vectors: :func:`allocate_dram_budget`
    of ``config.total_cache_vectors`` on each whole training trace's hit-rate curve."""
    curves = {name: hit_rate_curve(trace) for name, trace in training_trace.items()}
    return allocate_dram_budget(curves, config.total_cache_vectors)


def tune(
    splits: Mapping[str, Tuple[Trace, Trace]],
    placements: Mapping[str, Tuple[BlockLayout, np.ndarray]],
    cache_sizes: Mapping[str, int],
    config: BandanaConfig,
) -> Dict[str, float]:
    """Stage 4: per table, its admission threshold.

    With ``config.tune_thresholds``, :meth:`MiniatureCacheTuner.select_threshold`
    on the tune trace at the table's cache size; otherwise, and for a table
    with no cache or an empty tune trace, ``config.default_threshold``."""
    grid, rate = config.candidate_thresholds, config.mini_cache_sampling_rate
    tuner = MiniatureCacheTuner(grid, rate, config.seed, config.vector_bytes)
    thresholds: Dict[str, float] = {}
    for name, (_, trace) in splits.items():
        thresholds[name] = config.default_threshold
        if config.tune_thresholds and cache_sizes[name] > 0 and len(trace) > 0:
            selection = tuner.select_threshold(trace, *placements[name], cache_sizes[name])
            thresholds[name] = selection.threshold
    return thresholds


def assemble(
    config: BandanaConfig,
    placements: Mapping[str, Tuple[BlockLayout, np.ndarray]],
    cache_sizes: Mapping[str, int],
    thresholds: Mapping[str, float],
) -> Dict[str, BandanaTableState]:
    """The cold per-table state of the stage outputs, for ``BandanaStore(config, tables)``."""
    return {
        name: BandanaTableState(
            name=name,
            layout=layout,
            policy=AccessThresholdPolicy(counts, thresholds[name]),
            cache_config=TableCacheConfig(cache_sizes[name], thresholds[name]),
            access_counts=counts,
            stats=_fresh_stats(config),
        )
        for name, (layout, counts) in placements.items()
    }


class BandanaStore:
    """NVM-backed embedding storage with locality-aware placement and caching.

    :meth:`build` makes one from a training trace; the constructor only wires
    already-resolved per-table state (:func:`assemble`'s, or a test's)."""

    def __init__(
        self, config: BandanaConfig, tables: Dict[str, BandanaTableState],
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
        """Build a store from a training trace: the four stages in order.

        Parameters
        ----------
        training_trace:
            Per-table traces.  :func:`split_dram` reads each whole trace;
            :func:`tuning_split` decides what :func:`place` and :func:`tune` read.
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
        budget = [config.total_cache_vectors]
        return cls.build_sweep(training_trace, config, budget, embedding_model, num_vectors)[0]

    @classmethod
    def build_sweep(
        cls, training_trace: ModelTrace, config: BandanaConfig, budgets: Sequence[int],
        embedding_model: Optional[EmbeddingModel], num_vectors: Optional[Mapping[str, int]],
    ) -> List["BandanaStore"]:
        """:meth:`build` at each ``total_cache_vectors`` of ``budgets``, on one placement:
        :func:`tuning_split` and :func:`place` read no budget and run once, the
        other stages per budget.  The stores share their layouts; each owns its
        access counts (a re-partition rewrites them in place)."""
        sizes = cls._resolve_table_sizes(training_trace, embedding_model, num_vectors)
        splits = tuning_split(training_trace, config)
        placements = place(splits, sizes, config)
        stores: List[BandanaStore] = []
        for total in budgets:
            at = replace(config, total_cache_vectors=total)
            cache_sizes = split_dram(training_trace, at)
            thresholds = tune(splits, placements, cache_sizes, at)
            own = {n: (lay, c.copy() if stores else c) for n, (lay, c) in placements.items()}
            stores.append(cls(at, assemble(at, own, cache_sizes, thresholds), embedding_model))
        return stores

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
            return [self.embedding_model[table_name].gather(ids) for ids in id_arrays]
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
            stats = replace(state.stats) if stats is None else stats.merge(state.stats)
        return stats if stats is not None else ReplayStats()

    def effective_bandwidth(self) -> float:
        """Application bytes per NVM byte read over all tables so far."""
        return self.aggregate_stats().effective_bandwidth

    def dram_bytes(self) -> int:
        """DRAM footprint of the configured caches, in bytes."""
        vectors = sum(state.cache_config.cache_size_vectors for state in self.tables.values())
        return vectors * self.config.vector_bytes

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
        old = state.layout
        if (layout.num_vectors, layout.vectors_per_block) != (
            old.num_vectors, old.vectors_per_block
        ):
            raise ValueError(
                "swap_layout requires identical geometry: "
                f"({layout.num_vectors} vectors, {layout.vectors_per_block}/block) vs "
                f"({old.num_vectors}, {old.vectors_per_block})"
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
    def baseline_stats(self, table_name: str, queries: Sequence[np.ndarray]) -> ReplayStats:
        """One table's queries replayed under the paper's baseline policy.

        The baseline caches only demand vectors (no prefetching) in a cold
        cache of the table's size, over the table's layout.  It is the
        denominator of the store's effective-bandwidth *increase*.
        """
        state, policy = self._state(table_name), NoPrefetchPolicy()
        size, vector_bytes = state.cache_config.cache_size_vectors, self.config.vector_bytes
        return replay_table_cache_batched(queries, state.layout, policy, size, vector_bytes)

    def baseline_block_reads(self, eval_trace: ModelTrace) -> int:
        """Block reads the baseline policy would issue for a whole trace."""
        reads = (self.baseline_stats(n, t.queries).block_reads for n, t in eval_trace.items())
        return sum(reads)

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
        if table_name not in self.tables:
            raise KeyError(f"unknown table {table_name!r}; known tables: {sorted(self.tables)}")
        return self.tables[table_name]

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
                sizes[name] = check_int_at_least(num_vectors[name], 1, f"num_vectors[{name!r}]")
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
