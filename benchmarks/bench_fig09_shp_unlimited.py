"""Figure 9 — effective bandwidth increase of SHP placement, unlimited cache.

SHP is trained on traces of increasing length (the paper uses 200 M / 1 B /
5 B requests) and evaluated on a held-out trace: more training data produces a
better placement, and the per-table gains follow the tables' cacheability
(table 2 highest, table 8 lowest).
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result
from repro.partitioning import SHPPartitioner
from repro.simulation.experiment import ExperimentSweep
from repro.simulation.runner import unlimited_cache_bandwidth_increase

#: Training-trace length as a multiple of the evaluation trace, mirroring the
#: paper's 200 M / 1 B / 5 B sweep (0.2x / 1x / 5x of the evaluation trace).
TRAINING_RATIOS = [0.2, 1.0, 3.0]
TABLES = ["table1", "table2", "table6", "table7", "table8"]


def run_figure9(bundle):
    sweep = ExperimentSweep("figure9", "SHP placement, unlimited cache, per training size")
    gains = {}
    for name in TABLES:
        workload = bundle[name]
        total_queries = len(workload.train)
        for ratio in TRAINING_RATIOS:
            num_queries = max(2, int(round(total_queries * ratio / max(TRAINING_RATIOS))))
            training = workload.train.head(num_queries)
            layout = (
                SHPPartitioner(vectors_per_block=32, num_iterations=12, seed=1)
                .partition(workload.spec.num_vectors, trace=training)
                .layout(32)
            )
            gain = unlimited_cache_bandwidth_increase(workload.evaluation, layout)
            gains[(name, ratio)] = gain
            sweep.add({"table": name, "training_ratio": ratio}, {"bw_increase": gain})
    return sweep, gains


def test_fig09_shp_unlimited(bundle):
    sweep, gains = run_figure9(bundle)
    save_result("fig09_shp_unlimited", sweep.to_table())
    largest = max(TRAINING_RATIOS)
    smallest = min(TRAINING_RATIOS)
    # More training data never hurts much and usually helps (Figure 9).
    for name in ["table1", "table2"]:
        assert gains[(name, largest)] >= gains[(name, smallest)] * 0.9
    # Cacheable tables gain far more than the near-uniform table 8.
    assert gains[("table2", largest)] > gains[("table8", largest)]
    assert gains[("table2", largest)] > 1.0  # > 100% increase
