"""Miniature-cache simulation for choosing the prefetch-admission threshold.

The optimal access threshold ``t`` of the paper's admission policy varies with
the table and the cache size (Figure 12), so Bandana picks it *per table, per
cache size* by simulating several small caches (Section 4.3.3, following
Waldspurger et al., ATC'17):

1. spatially hash-sample the request stream at rate ``1/N`` *by block*: a
   lookup is kept when the hash of the NVM block holding it falls under the
   rate, so every block is either sampled whole or not at all,
2. scale the cache down by the same factor,
3. replay the sampled stream through the scaled cache once per candidate
   threshold, and
4. pick the threshold whose miniature simulation reads the fewest NVM blocks.

Sampling is by block because a prefetch is a block-level event: a demand
miss offers the rest of its block to the cache.  Sampling vector ids would
keep about ``32/N`` of a sampled block's vectors, so only ``1/N`` of the
neighbours a prefetch admits would ever be looked up in the sampled stream,
and every prefetch's benefit would be understated by that factor.  The rate
is floored so the miniature cache holds at least :data:`MIN_MINIATURE_BLOCKS`
blocks; below that, a few prefetch sweeps flush the whole cache.

Because the miniature caches store only ids and see only ``1/N`` of the
traffic, the whole search costs a small fraction of serving the real traffic.
:class:`MiniatureCacheTuner` implements the search;
:meth:`MiniatureCacheTuner.select_threshold` reproduces the paper's Table 2.

The search runs on the batch engine
(:func:`repro.caching.engine.replay_table_cache_multi`): the sampled stream is
converted and validated once and replayed through the no-prefetch baseline
and every candidate threshold's miniature cache in turn.  The counters are
bit-identical to one :func:`~repro.caching.replay.replay_table_cache` call
per policy, which ``tests/test_engine_equivalence.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.caching.engine import replay_table_cache_multi
from repro.caching.policies import AccessThresholdPolicy, NoPrefetchPolicy
from repro.caching.replay import ReplayStats, effective_bandwidth_increase
from repro.nvm.block import BlockLayout
from repro.utils.sampling import sample_queries_spatially
from repro.utils.validation import check_fraction, check_int_at_least, check_thresholds
from repro.workloads.trace import Trace

#: Fewest whole blocks a miniature cache holds; the sampling rate is raised
#: to reach it (a 4-block floor still mis-picks the threshold on small tables).
MIN_MINIATURE_BLOCKS = 8


@dataclass
class ThresholdSelection:
    """Result of a miniature-cache threshold search for one table/cache size.

    Attributes
    ----------
    threshold:
        The selected admission threshold ``t``.
    sampling_rate:
        The effective sampling rate the decision was made at: the tuner's
        rate, raised so the miniature cache holds
        :data:`MIN_MINIATURE_BLOCKS` blocks (1.0 = full cache oracle).
    miniature_cache_size:
        Capacity (in vectors) of the miniature cache that was simulated.
    gains:
        Effective-bandwidth increase measured in the miniature simulation for
        every candidate threshold (relative to the miniature no-prefetch
        baseline).
    baseline_stats / per_threshold_stats:
        Raw replay statistics, kept for inspection and reporting.
    """

    threshold: float
    sampling_rate: float
    miniature_cache_size: int
    gains: Dict[float, float] = field(default_factory=dict)
    baseline_stats: Optional[ReplayStats] = None
    per_threshold_stats: Dict[float, ReplayStats] = field(default_factory=dict)


class MiniatureCacheTuner:
    """Selects prefetch-admission thresholds by simulating miniature caches.

    Parameters
    ----------
    thresholds:
        Candidate thresholds to evaluate, each a finite number >= 0 (the
        store passes ``BandanaConfig.candidate_thresholds``).
    sampling_rate:
        Fraction of NVM blocks (spatially sampled) whose lookups the miniature
        simulation replays.  The paper finds 0.001 (0.1 %) is sufficient.
        A table whose cache would shrink below :data:`MIN_MINIATURE_BLOCKS`
        blocks is simulated at the rate that reaches that floor.
    seed:
        Seed of the sampling hash.
    vector_bytes:
        Bytes per vector, used only for bandwidth bookkeeping.
    """

    def __init__(
        self,
        thresholds: Sequence[float],
        sampling_rate: float = 0.001,
        seed: int = 0,
        vector_bytes: int = 128,
    ) -> None:
        self.thresholds = check_thresholds(thresholds, "thresholds")
        check_fraction(sampling_rate, "sampling_rate")
        if sampling_rate <= 0:
            raise ValueError("sampling_rate must be > 0")
        self.vector_bytes = check_int_at_least(vector_bytes, 1, "vector_bytes")
        self.sampling_rate = float(sampling_rate)
        self.seed = int(seed)

    def select_threshold(
        self,
        trace: Trace,
        layout: BlockLayout,
        access_counts: np.ndarray,
        cache_size: int,
    ) -> ThresholdSelection:
        """Pick the admission threshold for one table at one cache size.

        Parameters
        ----------
        trace:
            The tuning trace (in production this is a sampled slice of live
            traffic; :meth:`~repro.core.bandana.BandanaStore.build` uses the
            held-out tail of the training trace).
        layout:
            The table's block layout (typically produced by SHP).
        access_counts:
            Per-vector access counts from the SHP training run — the statistic
            the admission policy thresholds on.  They should come from
            traffic other than ``trace``: counted on the replayed trace,
            "count > 0" means "read again in this trace", a look-ahead the
            live cache does not have.
        cache_size:
            The *real* cache size in vectors; the miniature cache is scaled by
            the effective sampling rate (see :attr:`ThresholdSelection.sampling_rate`).
        """
        cache_size = check_int_at_least(cache_size, 1, "cache_size")
        access_counts = np.asarray(access_counts, dtype=np.int64)
        floor = MIN_MINIATURE_BLOCKS * layout.vectors_per_block / cache_size
        rate = min(1.0, max(self.sampling_rate, floor))
        if rate >= 1.0:
            sampled_queries = list(trace.queries)
            mini_cache_size = cache_size
        else:
            sampled_queries = sample_queries_spatially(
                trace.queries, layout, rate, seed=self.seed
            )
            mini_cache_size = max(1, int(round(cache_size * rate)))
        policies = [NoPrefetchPolicy()] + [
            AccessThresholdPolicy(access_counts, threshold)
            for threshold in self.thresholds
        ]
        all_stats = replay_table_cache_multi(
            sampled_queries,
            layout,
            policies,
            cache_sizes=[mini_cache_size] * len(policies),
            vector_bytes=self.vector_bytes,
        )
        baseline = all_stats[0]

        gains: Dict[float, float] = {}
        per_threshold: Dict[float, ReplayStats] = {}
        best_threshold = self.thresholds[0]
        best_gain = -np.inf
        for threshold, stats in zip(self.thresholds, all_stats[1:]):
            gain = effective_bandwidth_increase(baseline, stats)
            gains[threshold] = gain
            per_threshold[threshold] = stats
            if gain > best_gain:
                best_gain = gain
                best_threshold = threshold

        return ThresholdSelection(
            threshold=best_threshold,
            sampling_rate=rate,
            miniature_cache_size=mini_cache_size,
            gains=gains,
            baseline_stats=baseline,
            per_threshold_stats=per_threshold,
        )
