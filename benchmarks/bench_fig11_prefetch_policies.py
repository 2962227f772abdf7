"""Figure 11 — where (and whether) to insert prefetched vectors in the queue.

(a) inserting prefetches at a lower queue position, (b) admitting only
prefetches that hit a shadow cache, (c) combining both.  All three are
measured against the no-prefetch baseline on table 2 with limited caches, as
in the paper.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import cache_sizes_for, save_result
from repro.caching.policies import (
    CombinedPolicy,
    InsertAtPositionPolicy,
    ShadowAdmissionPolicy,
)
from repro.simulation.experiment import ExperimentSweep
from repro.simulation.runner import simulate_table

TABLE = "table2"
POSITIONS = [0.0, 0.3, 0.5, 0.7, 0.9]
SHADOW_MULTIPLIERS = [1.0, 1.5, 2.0]


def run_figure11(bundle):
    workload = bundle[TABLE]
    cache_sizes = cache_sizes_for(workload, fractions=(0.2, 0.4, 0.6))
    sweep = ExperimentSweep("figure11", f"prefetch insertion policies on {TABLE}")
    results = {"position": {}, "shadow": {}, "combined": {}}

    for cache_size in cache_sizes:
        for position in POSITIONS:
            result = simulate_table(
                workload.evaluation,
                workload.shp_layout,
                InsertAtPositionPolicy(position=position),
                cache_size=cache_size,
            )
            results["position"][(cache_size, position)] = result.bandwidth_increase
            sweep.add(
                {"policy": "insert-at-position", "cache_size": cache_size, "param": position},
                {"bw_increase": result.bandwidth_increase},
            )
        for multiplier in SHADOW_MULTIPLIERS:
            result = simulate_table(
                workload.evaluation,
                workload.shp_layout,
                ShadowAdmissionPolicy(real_cache_size=cache_size, multiplier=multiplier),
                cache_size=cache_size,
            )
            results["shadow"][(cache_size, multiplier)] = result.bandwidth_increase
            sweep.add(
                {"policy": "shadow-admission", "cache_size": cache_size, "param": multiplier},
                {"bw_increase": result.bandwidth_increase},
            )
        for position in (0.5, 0.9):
            result = simulate_table(
                workload.evaluation,
                workload.shp_layout,
                CombinedPolicy(real_cache_size=cache_size, position=position, multiplier=1.5),
                cache_size=cache_size,
            )
            results["combined"][(cache_size, position)] = result.bandwidth_increase
            sweep.add(
                {"policy": "combined", "cache_size": cache_size, "param": position},
                {"bw_increase": result.bandwidth_increase},
            )
    return sweep, results, cache_sizes


def test_fig11_prefetch_policies(bundle):
    sweep, results, cache_sizes = run_figure11(bundle)
    save_result("fig11_prefetch_policies", sweep.to_table())
    smallest = min(cache_sizes)
    # Figure 11a: inserting prefetches lower in the queue is no worse than
    # inserting them at the top (position 0), for small caches.
    assert results["position"][(smallest, 0.9)] >= results["position"][(smallest, 0.0)] - 0.02
    # Figure 11b: shadow-cache admission filters most of the pollution, so it
    # stays close to (or above) the no-prefetch baseline.
    shadow_gains = [results["shadow"][(smallest, m)] for m in SHADOW_MULTIPLIERS]
    assert min(shadow_gains) > -0.25
    # Figure 11a/11c overall: none of these heuristics produces a large gain —
    # the motivation for the access-threshold policy of Figure 12.
    all_gains = [g for family in results.values() for g in family.values()]
    assert max(all_gains) < 0.6
