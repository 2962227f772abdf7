"""Figure 12 — admission by access count during the SHP training run.

Prefetched vectors are admitted only if they appeared in more than ``t``
training queries.  The gain is positive for a well-chosen ``t`` and the
optimal ``t`` shrinks as the cache grows (larger caches can afford more
speculative prefetches).

The threshold values themselves are adapted to the scaled workload's access
count distribution (see ``benchmarks.common.threshold_candidates``); the
paper's absolute values (5–20) correspond to a 5 B-lookup training run.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import cache_sizes_for, save_result, threshold_candidates
from repro.caching.policies import AccessThresholdPolicy
from repro.simulation.experiment import ExperimentSweep
from repro.simulation.runner import simulate_table

TABLE = "table2"


def run_figure12(bundle):
    workload = bundle[TABLE]
    cache_sizes = cache_sizes_for(workload, fractions=(0.2, 0.4, 0.6, 0.9))
    thresholds = threshold_candidates(workload)
    sweep = ExperimentSweep("figure12", f"access-threshold admission on {TABLE}")
    results = {}
    for cache_size in cache_sizes:
        for threshold in thresholds:
            result = simulate_table(
                workload.evaluation,
                workload.shp_layout,
                AccessThresholdPolicy(workload.access_counts, threshold),
                cache_size=cache_size,
            )
            results[(cache_size, threshold)] = result.bandwidth_increase
            sweep.add(
                {"cache_size": cache_size, "threshold": threshold},
                {"bw_increase": result.bandwidth_increase},
            )
    return sweep, results, cache_sizes, thresholds


def test_fig12_access_threshold(bundle):
    sweep, results, cache_sizes, thresholds = run_figure12(bundle)
    save_result("fig12_access_threshold", sweep.to_table())
    largest_cache = max(cache_sizes)
    smallest_cache = min(cache_sizes)
    best_at_large = max(results[(largest_cache, t)] for t in thresholds)
    # A well-chosen threshold yields a positive gain at the largest cache.
    assert best_at_large > 0.0
    # Filtering (t > 0) beats admitting every previously-seen vector (t = 0)
    # at the smallest cache — the paper's motivation for the threshold.
    strictest = max(thresholds)
    assert results[(smallest_cache, strictest)] > results[(smallest_cache, 0.0)]
