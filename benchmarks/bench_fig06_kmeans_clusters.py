"""Figure 6 — effective bandwidth increase versus number of K-means clusters.

Semantic placement with flat K-means, unlimited DRAM cache: the gain grows
with the cluster count (finer grouping) and saturates, and is well below SHP's
gain on the same table (Figure 9 / benchmark fig09).
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result, timed_partition
from repro.partitioning import KMeansPartitioner
from repro.simulation.experiment import ExperimentSweep
from repro.simulation.runner import unlimited_cache_bandwidth_increase

CLUSTER_COUNTS = [1, 4, 16, 64, 256, 1024]
TABLE = "table2"


def run_figure6(bundle, embedding_values):
    workload = bundle[TABLE]
    table_values = embedding_values(TABLE)
    sweep = ExperimentSweep(
        "figure6", f"K-means placement on {TABLE}, unlimited cache"
    )
    for clusters in CLUSTER_COUNTS:
        partitioner = KMeansPartitioner(num_clusters=clusters, num_iterations=10)
        result, runtime_s = timed_partition(
            partitioner, workload.spec.num_vectors, table=table_values
        )
        layout = result.layout(32)
        gain = unlimited_cache_bandwidth_increase(workload.evaluation, layout)
        sweep.add({"clusters": clusters}, {"bw_increase": gain, "runtime_s": runtime_s})
    return sweep


def test_fig06_kmeans_clusters(bundle, embedding_values):
    sweep = run_figure6(bundle, embedding_values)
    save_result("fig06_kmeans_clusters", sweep.to_table())
    gains = sweep.column("bw_increase")
    # Shape: one cluster is an arbitrary ordering (≈ no gain over the original
    # layout); enough clusters give a clearly positive gain.
    assert gains[-1] > gains[0]
    assert max(gains) > 0.3
