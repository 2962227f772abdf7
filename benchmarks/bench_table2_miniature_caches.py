"""Table 2 — miniature-cache threshold selection versus the full-cache oracle.

For several cache sizes, the full-cache "oracle" sweep finds the ideal
admission threshold; miniature caches pick a threshold from a spatially
sampled replay at 25 % / 10 % / 5 % of the traffic.  The benchmark reports the
chosen threshold and the bandwidth gain it achieves *at full size*, mirroring
the paper's Table 2 (which finds 0.1 % sampling sufficient at production
scale; the scaled workload needs higher rates because its absolute working set
is three orders of magnitude smaller).
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import cache_sizes_for, save_result, threshold_candidates
from repro.caching.miniature import MiniatureCacheTuner
from repro.caching.policies import AccessThresholdPolicy
from repro.simulation.report import format_table
from repro.simulation.runner import simulate_table

TABLE = "table2"
SAMPLING_RATES = [1.0, 0.25, 0.1, 0.05]


def run_table2(bundle):
    workload = bundle[TABLE]
    thresholds = threshold_candidates(workload)
    cache_sizes = cache_sizes_for(workload, fractions=(0.3, 0.5, 0.7, 0.9))

    def full_gain(threshold, cache_size):
        result = simulate_table(
            workload.evaluation,
            workload.shp_layout,
            AccessThresholdPolicy(workload.access_counts, threshold),
            cache_size=cache_size,
        )
        return result.bandwidth_increase

    rows = []
    summary = {}
    for cache_size in cache_sizes:
        row = [cache_size]
        for rate in SAMPLING_RATES:
            tuner = MiniatureCacheTuner(sampling_rate=rate, seed=5, thresholds=thresholds)
            selection = tuner.select_threshold(
                workload.evaluation, workload.shp_layout, workload.access_counts, cache_size
            )
            gain = full_gain(selection.threshold, cache_size)
            summary[(cache_size, rate)] = (selection.threshold, gain)
            # The rate the tuner ran at: MIN_MINIATURE_BLOCKS can lift it
            # above the column's nominal rate.
            row.append(
                f"t={selection.threshold:.0f} ({100 * gain:+.0f}%) "
                f"@{selection.sampling_rate:.3g}"
            )
        rows.append(row)
    headers = ["cache size"] + [
        ("full cache" if rate == 1.0 else f"{100 * rate:.0f}% sampling") for rate in SAMPLING_RATES
    ]
    return format_table(headers, rows), summary, cache_sizes


def test_table2_miniature_caches(bundle):
    table, summary, cache_sizes = run_table2(bundle)
    save_result("table2_miniature_caches", table)
    # The sampled selections must achieve a gain close to the full-cache
    # oracle's at every cache size (the paper's Table 2 claim).
    for cache_size in cache_sizes:
        oracle_gain = summary[(cache_size, 1.0)][1]
        for rate in SAMPLING_RATES[1:]:
            assert summary[(cache_size, rate)][1] >= oracle_gain - 0.10
