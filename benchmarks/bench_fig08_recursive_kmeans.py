"""Figure 8 — effective bandwidth increase of recursive (two-stage) K-means.

The recursive variant approximates flat K-means at a fraction of the runtime:
its effective-bandwidth increase is close to flat K-means with the same number
of leaf clusters and saturates beyond a few thousand sub-clusters.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result, timed_partition
from repro.partitioning import KMeansPartitioner, RecursiveKMeansPartitioner
from repro.simulation.experiment import ExperimentSweep
from repro.simulation.runner import unlimited_cache_bandwidth_increase

LEAF_CLUSTERS = [64, 128, 256, 512, 1024]
TABLE = "table2"


def run_figure8(bundle, embedding_values):
    workload = bundle[TABLE]
    table_values = embedding_values(TABLE)
    sweep = ExperimentSweep("figure8", f"recursive K-means on {TABLE}, unlimited cache")
    for leaves in LEAF_CLUSTERS:
        partitioner = RecursiveKMeansPartitioner(
            num_top_clusters=16, num_sub_clusters=leaves, num_iterations=10
        )
        result, runtime_s = timed_partition(
            partitioner, workload.spec.num_vectors, table=table_values
        )
        gain = unlimited_cache_bandwidth_increase(workload.evaluation, result.layout(32))
        sweep.add({"leaf_clusters": leaves}, {"bw_increase": gain, "runtime_s": runtime_s})
    # Reference: flat K-means at the largest leaf count.
    flat, flat_runtime_s = timed_partition(
        KMeansPartitioner(num_clusters=LEAF_CLUSTERS[-1], num_iterations=10),
        workload.spec.num_vectors,
        table=table_values,
    )
    flat_gain = unlimited_cache_bandwidth_increase(workload.evaluation, flat.layout(32))
    sweep.add(
        {"leaf_clusters": f"flat-{LEAF_CLUSTERS[-1]}"},
        {"bw_increase": flat_gain, "runtime_s": flat_runtime_s},
    )
    return sweep


def test_fig08_recursive_kmeans(bundle, embedding_values):
    sweep = run_figure8(bundle, embedding_values)
    save_result("fig08_recursive_kmeans", sweep.to_table())
    gains = sweep.column("bw_increase")
    recursive_best = max(gains[:-1])
    flat_gain = gains[-1]
    # Recursive K-means achieves a gain comparable to flat K-means (Figure 8's
    # point: no loss of effective bandwidth from the two-stage approximation).
    assert recursive_best >= 0.5 * flat_gain
