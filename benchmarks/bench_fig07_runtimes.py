"""Figure 7 — partitioning runtimes.

(a) flat K-means runtime versus cluster count, (b) two-stage (recursive)
K-means runtime versus leaf-cluster count, (c) SHP runtime per table.  The
absolute times are not comparable to the paper's (different hardware, scaled
tables); the shape — flat K-means growing steeply with the cluster count while
the recursive variant grows slowly, and SHP costing minutes-equivalent per
table — is what the benchmark checks.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result
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
    rows_a = []
    flat_runtimes = []
    for clusters in FLAT_CLUSTERS:
        result = KMeansPartitioner(num_clusters=clusters, num_iterations=10).partition(
            workload.spec.num_vectors, table=table_values
        )
        flat_runtimes.append(result.runtime_seconds)
        rows_a.append([f"kmeans k={clusters}", f"{result.runtime_seconds:.2f}"])

    rows_b = []
    recursive_runtimes = []
    for leaves in LEAF_CLUSTERS:
        result = RecursiveKMeansPartitioner(
            num_top_clusters=16, num_sub_clusters=leaves, num_iterations=10
        ).partition(workload.spec.num_vectors, table=table_values)
        recursive_runtimes.append(result.runtime_seconds)
        rows_b.append([f"recursive leaves={leaves}", f"{result.runtime_seconds:.2f}"])

    rows_c = []
    for name in TOP_TABLES:
        table_workload = bundle[name]
        result = SHPPartitioner(vectors_per_block=32, num_iterations=16, seed=0).partition(
            table_workload.spec.num_vectors, trace=table_workload.train
        )
        rows_c.append([f"shp {name}", f"{result.runtime_seconds:.2f}"])

    table = format_table(["configuration", "runtime (s)"], rows_a + rows_b + rows_c)
    return table, flat_runtimes, recursive_runtimes


def test_fig07_runtimes(bundle, embedding_values):
    table, flat_runtimes, recursive_runtimes = run_figure7(bundle, embedding_values)
    save_result("fig07_runtimes", table)
    # Flat K-means runtime grows with the cluster count (Figure 7a) and the
    # recursive variant is cheaper than flat K-means at the same leaf count
    # (Figures 7a vs 7b).
    assert flat_runtimes[-1] > flat_runtimes[0]
    assert recursive_runtimes[-1] < flat_runtimes[-1] * 1.5
