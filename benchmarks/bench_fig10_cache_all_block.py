"""Figure 10 — caching every prefetched vector with a limited cache.

Treating all 32 vectors of a fetched block like the demanded vector floods the
LRU queue: with a limited cache the effective bandwidth *decreases* relative
to the no-prefetch baseline, both for the SHP-partitioned tables and for the
original (unsorted) tables.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import cache_sizes_for, save_result
from repro.caching.policies import CacheAllBlockPolicy
from repro.simulation.experiment import ExperimentSweep
from repro.simulation.runner import simulate_table

TABLE = "table2"


def run_figure10(bundle):
    workload = bundle[TABLE]
    sweep = ExperimentSweep(
        "figure10", f"cache-all-block policy on {TABLE}, limited cache"
    )
    results = {}
    for cache_size in cache_sizes_for(workload):
        for layout_name, layout in (
            ("partitioned", workload.shp_layout),
            ("original", workload.identity_layout),
        ):
            result = simulate_table(
                workload.evaluation, layout, CacheAllBlockPolicy(), cache_size=cache_size
            )
            results[(layout_name, cache_size)] = result.bandwidth_increase
            sweep.add(
                {"layout": layout_name, "cache_size": cache_size},
                {
                    "bw_increase": result.bandwidth_increase,
                    "hit_rate": result.stats.hit_rate,
                },
            )
    return sweep, results


def test_fig10_cache_all_block(bundle, benchmark):
    sweep, results = benchmark.pedantic(run_figure10, args=(bundle,), rounds=1, iterations=1)
    save_result("fig10_cache_all_block", sweep.to_table())
    # Figure 10's message: with a limited cache, caching whole blocks reduces
    # effective bandwidth versus the no-prefetch baseline for both layouts.
    negative = [gain for gain in results.values() if gain < 0]
    assert len(negative) >= len(results) * 0.75
