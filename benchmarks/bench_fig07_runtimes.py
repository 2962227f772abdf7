"""Figure 7 — partitioning runtimes.

(a) flat K-means runtime versus cluster count, (b) two-stage (recursive)
K-means runtime versus leaf-cluster count, (c) SHP runtime per table.  The
absolute times are not comparable to the paper's (different hardware, scaled
tables); the shape — flat K-means growing steeply with the cluster count while
the recursive variant grows slowly, and SHP costing minutes-equivalent per
table — is what the benchmark checks.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result, timed_partition
from benchmarks.conftest import TOP_TABLES
from repro.partitioning import (
    KMeansPartitioner,
    RecursiveKMeansPartitioner,
    SHPPartitioner,
)
from repro.simulation.report import format_table

FLAT_CLUSTERS = [16, 64, 256, 512]
LEAF_CLUSTERS = [64, 256, 512]
KMEANS_TABLE = "table4"


def run_figure7(bundle, embedding_values):
    workload = bundle[KMEANS_TABLE]
    table_values = embedding_values(KMEANS_TABLE)

    def kmeans_seconds(partitioner):
        return timed_partition(partitioner, workload.spec.num_vectors, table=table_values)[1]

    flat_runtimes = [
        kmeans_seconds(KMeansPartitioner(num_clusters=clusters, num_iterations=10))
        for clusters in FLAT_CLUSTERS
    ]
    recursive_runtimes = [
        kmeans_seconds(
            RecursiveKMeansPartitioner(
                num_top_clusters=16, num_sub_clusters=leaves, num_iterations=10
            )
        )
        for leaves in LEAF_CLUSTERS
    ]
    shp = SHPPartitioner(vectors_per_block=32, num_iterations=16, seed=0)
    shp_runtimes = [
        timed_partition(shp, bundle[name].spec.num_vectors, trace=bundle[name].train)[1]
        for name in TOP_TABLES
    ]

    rows = (
        [[f"kmeans k={k}", f"{s:.2f}"] for k, s in zip(FLAT_CLUSTERS, flat_runtimes)]
        + [[f"recursive leaves={n}", f"{s:.2f}"] for n, s in zip(LEAF_CLUSTERS, recursive_runtimes)]
        + [[f"shp {name}", f"{s:.2f}"] for name, s in zip(TOP_TABLES, shp_runtimes)]
    )
    table = format_table(["configuration", "runtime (s)"], rows)
    return table, flat_runtimes, recursive_runtimes


def test_fig07_runtimes(bundle, embedding_values):
    table, flat_runtimes, recursive_runtimes = run_figure7(bundle, embedding_values)
    save_result("fig07_runtimes", table)
    # Flat K-means runtime grows with the cluster count (Figure 7a) and the
    # recursive variant is cheaper than flat K-means at the same leaf count
    # (Figures 7a vs 7b).
    assert flat_runtimes[-1] > flat_runtimes[0]
    assert recursive_runtimes[-1] < flat_runtimes[-1] * 1.5
