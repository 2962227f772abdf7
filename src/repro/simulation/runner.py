"""Replay runners: per-table and whole-store simulation with baseline comparison.

The paper's effective-bandwidth-increase numbers always compare a candidate
configuration against the baseline policy (cache only the requested vector, no
prefetching) replayed over the *same* evaluation trace with the *same* cache
size.  The helpers here run both sides and package the comparison.

Every replay runs on the batch engine (:mod:`repro.caching.engine`) except
a policy that admits below the top of the queue (Figure 11), which only the
reference loop implements.  The store-wide replay walks one table at a time
through the store's own serving engines, so a simulation continues exactly
where serving left off.  The unlimited-cache placement study needs no replay
at all: with nothing ever evicted, its two block-read counts are distinct ids
and distinct blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.caching.engine import admits_only_at_top, replay_table_cache_batched
from repro.caching.policies import NoPrefetchPolicy, PrefetchPolicy
from repro.caching.replay import (
    ReplayStats,
    effective_bandwidth_increase,
    replay_table_cache,
)
from repro.core.bandana import BandanaStore
from repro.nvm.block import BlockLayout
from repro.utils.validation import check_array_1d_ints, check_id_range
from repro.workloads.trace import ModelTrace, Trace


@dataclass(frozen=True)
class TableSimulationResult:
    """Outcome of replaying one table's trace under a candidate policy."""

    stats: ReplayStats
    baseline_stats: Optional[ReplayStats] = None

    @property
    def bandwidth_increase(self) -> float:
        """Effective-bandwidth increase over the baseline run (0.0 if no baseline)."""
        if self.baseline_stats is None:
            return 0.0
        return effective_bandwidth_increase(self.baseline_stats, self.stats)


def simulate_table(
    trace: Trace,
    layout: BlockLayout,
    policy: PrefetchPolicy,
    cache_size: Optional[int] = None,
) -> TableSimulationResult:
    """Replay one table's trace under ``policy`` and under the no-prefetch
    baseline (the paper's).

    Parameters
    ----------
    trace:
        The evaluation trace.
    layout:
        Physical placement of the table.
    policy:
        Candidate prefetch-admission policy.
    cache_size:
        DRAM cache size in vectors; ``None`` reproduces the paper's
        unlimited-cache placement studies.
    """
    policy.reset()
    # Interpolated insert positions (Figure 11) exist only in the reference loop.
    replay: Callable[..., ReplayStats] = (
        replay_table_cache_batched if admits_only_at_top(policy) else replay_table_cache
    )
    stats = replay(trace.queries, layout, policy, cache_size=cache_size)
    baseline_stats = replay_table_cache_batched(
        trace.queries, layout, NoPrefetchPolicy(), cache_size=cache_size
    )
    return TableSimulationResult(stats=stats, baseline_stats=baseline_stats)


def unlimited_cache_bandwidth_increase(trace: Trace, layout: BlockLayout) -> float:
    """Effective-bandwidth increase of whole-block prefetching with an unlimited cache.

    This is the measurement behind the paper's placement studies (Figures 6,
    8 and 9): with no evictions, the only thing that matters is how many
    distinct blocks must be read, i.e. how well the placement groups
    co-accessed vectors.  So it is counted, not replayed: a cache that never
    evicts reads one block per distinct id without prefetching and one per
    distinct block with whole-block prefetching, and the increase is
    distinct ids ÷ distinct blocks − 1 (``0.0`` for an empty trace).  Ids are
    checked like the engine checks them, so an id outside the layout raises
    the same ``IndexError``.
    """
    ids = check_array_1d_ints(trace.flatten(), "vector_ids")
    check_id_range(ids, layout.num_vectors)
    touched = np.zeros(layout.num_vectors, dtype=bool)
    touched[ids] = True
    # A block is read iff any of its slots holds a touched vector.
    block_starts = np.arange(0, layout.num_vectors, layout.vectors_per_block)
    blocks_read = np.logical_or.reduceat(touched[layout.order], block_starts)
    distinct_blocks = int(np.count_nonzero(blocks_read))
    if distinct_blocks == 0:
        return 0.0
    return int(np.count_nonzero(touched)) / distinct_blocks - 1.0


@dataclass(frozen=True)
class StoreSimulationResult:
    """Outcome of replaying a full model trace through a Bandana store."""

    per_table: Dict[str, TableSimulationResult] = field(default_factory=dict)

    @property
    def total_block_reads(self) -> int:
        """Candidate block reads summed over tables."""
        return sum(result.stats.block_reads for result in self.per_table.values())

    @property
    def total_baseline_block_reads(self) -> int:
        """Baseline block reads summed over tables."""
        return sum(
            result.baseline_stats.block_reads
            for result in self.per_table.values()
            if result.baseline_stats is not None
        )

    @property
    def bandwidth_increase(self) -> float:
        """Aggregate effective-bandwidth increase across all tables."""
        candidate = self.total_block_reads
        baseline = self.total_baseline_block_reads
        if candidate == 0:
            return 0.0 if baseline == 0 else float("inf")
        return baseline / candidate - 1.0

    @property
    def aggregate_hit_rate(self) -> float:
        """Hit rate over all tables' lookups."""
        lookups = sum(r.stats.lookups for r in self.per_table.values())
        hits = sum(r.stats.hits for r in self.per_table.values())
        return hits / lookups if lookups else 0.0


def simulate_store(
    store: BandanaStore,
    eval_trace: ModelTrace,
    include_baseline: bool = True,
    reset_first: bool = True,
) -> StoreSimulationResult:
    """Replay a full model trace through a built Bandana store.

    Each table's queries are served in one
    :meth:`~repro.core.bandana.BandanaStore.lookup_batch` call, one table at
    a time.  Per-table replay state is independent across tables, so this
    gives the same counters as serving the zipped request stream
    (:meth:`~repro.workloads.trace.ModelTrace.requests`) request by request.

    The per-table baseline is replayed with the same cache size but no
    prefetching.  ``reset_first`` clears the store's serving state so
    repeated simulations start cold, like the paper's runs.  A trace table
    the store lacks raises ``KeyError`` before anything is reset or replayed.
    """
    store.check_tables(eval_trace)
    if reset_first:
        store.reset_serving_state()
    results: Dict[str, TableSimulationResult] = {}
    for name, trace in eval_trace.items():
        state = store.tables[name]
        store.lookup_batch(name, trace.queries)
        baseline_stats = None
        if include_baseline:
            baseline_stats = store.baseline_stats(name, trace.queries)
        results[name] = TableSimulationResult(
            stats=state.stats, baseline_stats=baseline_stats
        )
    return StoreSimulationResult(per_table=results)
