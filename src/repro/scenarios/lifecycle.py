"""The online re-partitioning lifecycle: retrain the placement, swap it live.

Bandana's placement is trained once, offline, on historical accesses — the
paper never measures what happens when the access distribution moves out
from under it.  :class:`RepartitionManager` makes that measurable: it keeps
a trailing window of served queries, periodically retrains the configured
partitioner on the window, and swaps the table's
:class:`~repro.nvm.block.BlockLayout` into the live store after a
configurable blackout (the simulated cost of the asynchronous retrain).

What a swap does — and costs — inside :class:`~repro.core.bandana.BandanaStore`:

* The placement lands through :meth:`BandanaStore.swap_layout
  <repro.core.bandana.BandanaStore.swap_layout>`: the live engine adopts the
  new id→block mapping while **sharing the table's cumulative
  ``ReplayStats``** — counters keep accumulating across swaps.
* With ``retain_cache`` (the default) DRAM residency survives: cache
  entries are keyed by vector id, which re-laying-out the NVM blocks does
  not invalidate — only prefetch behaviour changes.  With
  ``retain_cache=False`` every swap pays a cold-cache transient instead,
  modelling a system that flushes DRAM on re-layout; comparing the two arms
  is part of the answer to "when does retraining pay?".
* With ``refresh_access_counts``, the admission policy's per-vector counts
  are refreshed from the trailing window (scaled to the original counts'
  total, so the tuned threshold keeps its selectivity on the new
  distribution) through ``AccessThresholdPolicy.retune`` — the mutator that
  invalidates a warm engine's cached admission decisions.

The manager also measures *placement churn* per swap — the fraction of
vectors whose block changed — and the staleness (queries since last swap),
so "hit-rate decay vs partition age" becomes a reportable curve
(:mod:`repro.scenarios.runner`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.caching.policies import AccessThresholdPolicy
from repro.core.bandana import BandanaStore, BandanaTableState
from repro.nvm.block import BlockLayout
from repro.partitioning.base import Partitioner
from repro.partitioning.frequency import FrequencyPartitioner
from repro.partitioning.identity import IdentityPartitioner
from repro.partitioning.shp import SHPPartitioner
from repro.scenarios.config import RepartitionConfig
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
    store has served it); the manager decides when to retrain and when the
    trained placement lands, according to its
    :class:`~repro.scenarios.config.RepartitionConfig`.
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
        self._pending_layout: Optional[BlockLayout] = None
        self._pending_counts: Optional[np.ndarray] = None
        self._blackout_remaining = 0
        self._last_swap_query = 0
        # ---- lifecycle metrics -------------------------------------------
        self.retrains = 0
        self.swaps: List[int] = []
        self.churn: List[float] = []
        self.retrain_runtime_seconds = 0.0

    # ------------------------------------------------------------------ drive
    def observe(self, query: np.ndarray) -> bool:
        """Record one served query; returns ``True`` when a swap landed."""
        self._window.append(np.asarray(query, dtype=np.int64))
        self._queries_seen += 1
        if self._pending_layout is not None:
            self._blackout_remaining -= 1
            if self._blackout_remaining <= 0:
                self._apply_swap()
                return True
            return False
        due = self._queries_seen % self.config.cadence_queries == 0
        if due and len(self._window) >= self.config.min_window_queries:
            self._retrain()
            if self._blackout_remaining <= 0:
                self._apply_swap()
                return True
        return False

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
    def _make_partitioner(self) -> Partitioner:
        config = self.config
        if config.partitioner == "shp":
            return SHPPartitioner(
                vectors_per_block=self.store.config.vectors_per_block,
                num_iterations=config.shp_iterations,
                seed=config.seed,
            )
        if config.partitioner == "frequency":
            return FrequencyPartitioner()
        return IdentityPartitioner()

    def _retrain(self) -> None:
        """Train a fresh placement on the trailing window (stage the swap)."""
        state = self._state
        window_trace = Trace(list(self._window), num_vectors=state.layout.num_vectors)
        result = self._make_partitioner().partition(
            state.layout.num_vectors, trace=window_trace
        )
        self.retrains += 1
        self.retrain_runtime_seconds += result.runtime_seconds
        self._pending_layout = result.layout(self.store.config.vectors_per_block)
        if self.config.refresh_access_counts:
            window_counts = access_counts(window_trace).astype(np.float64)
            window_total = window_counts.sum()
            original_total = float(state.access_counts.sum())
            if window_total > 0 and original_total > 0:
                scale = original_total / window_total
                self._pending_counts = np.round(window_counts * scale).astype(np.int64)
            else:
                self._pending_counts = None
        self._blackout_remaining = self.config.blackout_queries

    def _apply_swap(self) -> None:
        """Land the staged placement in the live store."""
        state = self._state
        assert self._pending_layout is not None
        self.churn.append(layout_churn(state.layout, self._pending_layout))
        if self._pending_counts is not None:
            # In place for the store's own readers (serving specs); the policy
            # adopts the array through its one mutator, which is what tells a
            # warm engine that its cached admission decisions are stale.
            state.access_counts[:] = self._pending_counts
            if isinstance(state.policy, AccessThresholdPolicy):
                state.policy.retune(access_counts=state.access_counts)
        self.store.swap_layout(
            self.table_name,
            self._pending_layout,
            retain_cache=self.config.retain_cache,
        )
        self._pending_layout = None
        self._pending_counts = None
        self._blackout_remaining = 0
        self._last_swap_query = self._queries_seen
        self.swaps.append(self._queries_seen)
