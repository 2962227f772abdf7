"""The online re-partitioning lifecycle: retrain the placement, swap it live.

Bandana's placement is trained once, offline, on historical accesses — the
paper never measures what happens when the access distribution moves out
from under it.  :class:`RepartitionManager` makes that measurable: it keeps
a trailing window of served queries, periodically retrains SHP on the
window, and swaps the table's :class:`~repro.nvm.block.BlockLayout` into the
live store at once.

What a swap does — and costs — inside :class:`~repro.core.bandana.BandanaStore`:

* The placement lands through :meth:`BandanaStore.swap_layout
  <repro.core.bandana.BandanaStore.swap_layout>`: the live engine adopts the
  new id→block mapping while **sharing the table's cumulative
  ``ReplayStats``** — counters keep accumulating across swaps.
* DRAM residency survives: cache entries are keyed by vector id, which
  re-laying-out the NVM blocks does not invalidate — only prefetch
  behaviour changes.
* The admission policy's per-vector counts are refreshed from the trailing
  window (scaled to the original counts' total, so the tuned threshold
  keeps its selectivity on the new distribution) through
  ``AccessThresholdPolicy.retune`` — the mutator that invalidates a warm
  engine's cached admission decisions.

The manager also measures *placement churn* per swap — the fraction of
vectors whose block changed — and the staleness (queries since last swap),
so "hit-rate decay vs partition age" becomes a reportable curve
(:mod:`repro.scenarios.runner`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

import numpy as np
import numpy.typing as npt

from repro.caching.policies import AccessThresholdPolicy
from repro.core.bandana import BandanaStore, BandanaTableState
from repro.nvm.block import BlockLayout
from repro.partitioning.shp import SHPPartitioner
from repro.scenarios.config import RepartitionConfig
from repro.utils.validation import check_array_1d_ints, check_id_range
from repro.workloads.characterization import access_counts
from repro.workloads.trace import Trace


def layout_churn(old: BlockLayout, new: BlockLayout) -> float:
    """Fraction of vectors whose block assignment changed between layouts."""
    if old.num_vectors != new.num_vectors:
        raise ValueError(
            f"layouts cover different universes ({old.num_vectors} vs "
            f"{new.num_vectors} vectors)"
        )
    ids = np.arange(old.num_vectors, dtype=np.int64)
    return float(np.mean(old.block_of(ids) != new.block_of(ids)))


class RepartitionManager:
    """Periodically retrain one table's placement on a trailing window.

    Drive it by calling :meth:`observe` once per served query (after the
    store has served it); the manager decides when to retrain, according to
    its :class:`~repro.scenarios.config.RepartitionConfig`, and the trained
    placement lands before the next query is served.
    """

    def __init__(
        self, store: BandanaStore, table_name: str, config: RepartitionConfig
    ) -> None:
        self.store = store
        self.table_name = table_name
        self.config = config
        self._state: BandanaTableState = store.tables[table_name]
        self._window: Deque[np.ndarray] = deque(maxlen=config.window_queries)
        self._queries_seen = 0
        self._last_swap_query = 0
        # ---- lifecycle metrics -------------------------------------------
        self.retrains = 0
        self.swaps: List[int] = []
        self.churn: List[float] = []
        self.retrain_runtime_seconds = 0.0

    # ------------------------------------------------------------------ drive
    def observe(self, query: npt.ArrayLike) -> bool:
        """Record one served query; returns ``True`` when a swap landed.

        The ids are checked as :meth:`BandanaStore.lookup
        <repro.core.bandana.BandanaStore.lookup>` checks them (``TypeError``
        for non-integers, ``IndexError`` outside the table) before anything
        is recorded, so a rejected query never reaches the window.
        """
        ids = check_array_1d_ints(query, "vector_ids")
        check_id_range(ids, self._state.layout.num_vectors)
        self._window.append(ids)
        self._queries_seen += 1
        due = self._queries_seen % self.config.cadence_queries == 0
        if not due or len(self._window) < self.config.min_window_queries:
            return False
        self._retrain_and_swap()
        return True

    @property
    def partition_age_queries(self) -> int:
        """Queries served since the live placement last changed."""
        return self._queries_seen - self._last_swap_query

    def summary(self) -> Dict[str, object]:
        """Lifecycle metrics for reports and benchmark artifacts."""
        return {
            "retrains": self.retrains,
            "swaps": list(self.swaps),
            "churn": [round(value, 4) for value in self.churn],
            "queries_seen": self._queries_seen,
            "final_partition_age_queries": self.partition_age_queries,
            "retrain_runtime_seconds": round(self.retrain_runtime_seconds, 4),
        }

    # ---------------------------------------------------------------- private
    def _retrain_and_swap(self) -> None:
        """Train a fresh placement on the trailing window; land it in the live store."""
        state = self._state
        window_trace = Trace(list(self._window), num_vectors=state.layout.num_vectors)
        partitioner = SHPPartitioner(
            vectors_per_block=self.store.config.vectors_per_block,
            num_iterations=self.config.shp_iterations,
            seed=self.config.seed,
        )
        result = partitioner.partition(state.layout.num_vectors, trace=window_trace)
        self.retrains += 1
        self.retrain_runtime_seconds += result.runtime_seconds
        layout = result.layout(self.store.config.vectors_per_block)
        window_counts = access_counts(window_trace).astype(np.float64)
        window_total = window_counts.sum()
        original_total = float(state.access_counts.sum())
        self.churn.append(layout_churn(state.layout, layout))
        if window_total > 0 and original_total > 0:
            scale = original_total / window_total
            # In place for the array's other readers (the shard stores of a
            # cluster built on this store share it); the policy adopts the
            # array through its one mutator, which is what tells a warm
            # engine that its cached admission decisions are stale.
            state.access_counts[:] = np.round(window_counts * scale).astype(np.int64)
            if isinstance(state.policy, AccessThresholdPolicy):
                state.policy.retune(access_counts=state.access_counts)
        self.store.swap_layout(self.table_name, layout)
        self._last_swap_query = self._queries_seen
        self.swaps.append(self._queries_seen)
