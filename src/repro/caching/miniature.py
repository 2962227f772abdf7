"""Miniature-cache simulation for choosing the prefetch-admission threshold.

The optimal access threshold ``t`` of the paper's admission policy varies with
the table and the cache size (Figure 12), so Bandana picks it *per table, per
cache size* by simulating several small caches (Section 4.3.3, following
Waldspurger et al., ATC'17):

1. spatially hash-sample the request stream at rate ``1/N`` (the same vector
   id is always either sampled or not),
2. scale the cache down by the same factor,
3. replay the sampled stream through the scaled cache once per candidate
   threshold, and
4. pick the threshold whose miniature simulation reads the fewest NVM blocks.

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
from repro.utils.validation import check_fraction, check_positive
from repro.workloads.trace import Trace

#: Candidate thresholds the paper sweeps in Figure 12 / Table 2.
DEFAULT_THRESHOLDS = (0, 5, 10, 15, 20)


@dataclass
class ThresholdSelection:
    """Result of a miniature-cache threshold search for one table/cache size.

    Attributes
    ----------
    threshold:
        The selected admission threshold ``t``.
    sampling_rate:
        The sampling rate the decision was made at (1.0 = full cache oracle).
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
    sampling_rate:
        Fraction of vector ids (spatially sampled) included in the miniature
        simulation.  The paper finds 0.001 (0.1 %) is sufficient.
    seed:
        Seed of the sampling hash.
    thresholds:
        Candidate thresholds to evaluate; defaults to the paper's sweep.
    vector_bytes:
        Bytes per vector, used only for bandwidth bookkeeping.
    """

    def __init__(
        self,
        sampling_rate: float = 0.001,
        seed: int = 0,
        thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
        vector_bytes: int = 128,
    ) -> None:
        check_fraction(sampling_rate, "sampling_rate")
        if sampling_rate <= 0:
            raise ValueError("sampling_rate must be > 0")
        check_positive(vector_bytes, "vector_bytes")
        if not len(thresholds):
            raise ValueError("thresholds must not be empty")
        self.sampling_rate = float(sampling_rate)
        self.seed = int(seed)
        self.thresholds = tuple(float(t) for t in thresholds)
        self.vector_bytes = int(vector_bytes)

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
            traffic; the benchmarks use a slice of the training trace).
        layout:
            The table's block layout (typically produced by SHP).
        access_counts:
            Per-vector access counts from the SHP training run — the statistic
            the admission policy thresholds on.
        cache_size:
            The *real* cache size in vectors; the miniature cache is scaled by
            the sampling rate.
        """
        check_positive(cache_size, "cache_size")
        cache_size = int(cache_size)
        access_counts = np.asarray(access_counts, dtype=np.int64)
        if self.sampling_rate >= 1.0:
            sampled_queries = list(trace.queries)
            mini_cache_size = cache_size
        else:
            sampled_queries = sample_queries_spatially(
                trace.queries, self.sampling_rate, seed=self.seed
            )
            mini_cache_size = max(1, int(round(cache_size * self.sampling_rate)))
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
            sampling_rate=self.sampling_rate,
            miniature_cache_size=mini_cache_size,
            gains=gains,
            baseline_stats=baseline,
            per_threshold_stats=per_threshold,
        )
