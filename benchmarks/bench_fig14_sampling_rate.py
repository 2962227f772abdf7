"""Figure 14 — end-to-end effective bandwidth versus miniature-cache sampling rate.

The per-table admission thresholds are tuned with miniature caches at several
sampling rates and compared against the full-cache oracle: the sampled tuner
should track the oracle closely even at aggressive down-sampling.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result
from repro.caching.miniature import MiniatureCacheTuner
from repro.caching.policies import AccessThresholdPolicy
from repro.caching.replay import effective_bandwidth_increase, replay_table_cache
from repro.caching.policies import NoPrefetchPolicy
from repro.simulation.experiment import ExperimentSweep

from benchmarks.common import cache_sizes_for, threshold_candidates

TABLES = ["table1", "table2", "table6", "table7"]
SAMPLING_RATES = [1.0, 0.25, 0.1, 0.05]


def run_figure14(bundle):
    sweep = ExperimentSweep(
        "figure14", "per-table gain with thresholds tuned at different sampling rates"
    )
    gains = {}
    for name in TABLES:
        workload = bundle[name]
        cache_size = cache_sizes_for(workload, fractions=(0.6,))[0]
        thresholds = threshold_candidates(workload)
        baseline = replay_table_cache(
            workload.evaluation.queries,
            workload.shp_layout,
            NoPrefetchPolicy(),
            cache_size=cache_size,
        )
        for rate in SAMPLING_RATES:
            tuner = MiniatureCacheTuner(sampling_rate=rate, seed=9, thresholds=thresholds)
            selection = tuner.select_threshold(
                workload.evaluation, workload.shp_layout, workload.access_counts, cache_size
            )
            stats = replay_table_cache(
                workload.evaluation.queries,
                workload.shp_layout,
                AccessThresholdPolicy(workload.access_counts, selection.threshold),
                cache_size=cache_size,
            )
            gain = effective_bandwidth_increase(baseline, stats)
            gains[(name, rate)] = gain
            sweep.add(
                {"table": name, "sampling_rate": rate, "threshold": selection.threshold},
                {"bw_increase": gain},
            )
    return sweep, gains


def test_fig14_sampling_rate(bundle):
    sweep, gains = run_figure14(bundle)
    save_result("fig14_sampling_rate", sweep.to_table())
    # Sampled tuning must stay close to the full-cache oracle for every table.
    for name in TABLES:
        oracle = gains[(name, 1.0)]
        for rate in SAMPLING_RATES[1:]:
            assert gains[(name, rate)] >= oracle - 0.02
