"""Ablation — how much of SHP's win is co-access mining versus hot/cold separation.

Not a figure from the paper: it asks whether a trivial frequency ordering
(pack vectors by training access count) captures most of SHP's benefit,
using the partitioners ARCHITECTURE.md lists as figure-script tools under
``repro.partitioning``.  The ablation compares, under an unlimited cache,
the original layout, frequency ordering, K-means placement and SHP on a
cacheable table and on the near-uniform table 8.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result
from repro.partitioning import FrequencyPartitioner, KMeansPartitioner
from repro.simulation.experiment import ExperimentSweep
from repro.simulation.runner import unlimited_cache_bandwidth_increase

TABLES = ["table2", "table8"]


def run_ablation(bundle, embedding_values):
    sweep = ExperimentSweep("ablation", "placement families, unlimited cache")
    gains = {}
    for name in TABLES:
        workload = bundle[name]
        layouts = {
            "original": workload.identity_layout,
            "frequency": FrequencyPartitioner()
            .partition(workload.spec.num_vectors, trace=workload.train)
            .layout(32),
            "kmeans-256": KMeansPartitioner(num_clusters=256, num_iterations=10)
            .partition(workload.spec.num_vectors, table=embedding_values(name))
            .layout(32),
            "shp": workload.shp_layout,
        }
        for label, layout in layouts.items():
            gain = unlimited_cache_bandwidth_increase(workload.evaluation, layout)
            gains[(name, label)] = gain
            sweep.add({"table": name, "placement": label}, {"bw_increase": gain})
    return sweep, gains


def test_ablation_placement(bundle, embedding_values):
    sweep, gains = run_ablation(bundle, embedding_values)
    save_result("ablation_placement", sweep.to_table())
    # Supervised placements (frequency, SHP) beat the original layout on the
    # cacheable table, and SHP beats pure geometry (K-means).
    assert gains[("table2", "shp")] > gains[("table2", "original")]
    assert gains[("table2", "shp")] > gains[("table2", "kmeans-256")]
    # On the near-uniform table 8 every placement is close to the original.
    assert gains[("table8", "shp")] < gains[("table2", "shp")]
