"""Two-stage (recursive) K-means placement (the paper's Section 4.2.1).

Flat K-means does not scale to the hundreds of thousands of clusters needed to
approach block-sized groups (Figure 7a shows its runtime growing steeply with
the cluster count).  The paper's remedy is to run K-means twice: first into a
moderate number of top-level clusters (256), then again *inside each cluster*
to produce sub-clusters.  The total number of leaf clusters is the product,
while each individual run stays small, so the runtime grows far more slowly
(Figure 7b) and the achieved effective bandwidth matches flat K-means
(Figure 8).
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.table import EmbeddingTable
from repro.partitioning.base import Partitioner, PartitionResult
from repro.partitioning.kmeans import kmeans_cluster
from repro.utils.validation import check_positive


class RecursiveKMeansPartitioner(Partitioner):
    """Two-stage K-means: top-level clusters, then sub-clusters within each.

    Parameters
    ----------
    num_top_clusters:
        Number of first-stage clusters (the paper uses 256).
    num_sub_clusters:
        *Total* number of leaf clusters targeted across the whole table (the
        x-axis of Figures 7b and 8).  Each top-level cluster is split into a
        number of sub-clusters proportional to its size so leaves stay
        roughly balanced.
    num_iterations:
        Lloyd iterations per stage.

    The first stage is seeded with 0 and top-level cluster ``c``'s split with
    ``1 + c``.
    """

    name = "recursive-kmeans"

    def __init__(
        self,
        num_top_clusters: int = 256,
        num_sub_clusters: int = 8192,
        num_iterations: int = 20,
    ) -> None:
        check_positive(num_top_clusters, "num_top_clusters")
        check_positive(num_sub_clusters, "num_sub_clusters")
        check_positive(num_iterations, "num_iterations")
        if num_sub_clusters < num_top_clusters:
            raise ValueError(
                "num_sub_clusters is the total leaf count and must be >= num_top_clusters"
            )
        self.num_top_clusters = int(num_top_clusters)
        self.num_sub_clusters = int(num_sub_clusters)
        self.num_iterations = int(num_iterations)

    def partition(self, num_vectors: int, table: EmbeddingTable) -> PartitionResult:
        num_vectors = self._validate_num_vectors(num_vectors)
        if table.num_vectors != num_vectors:
            raise ValueError(
                f"table has {table.num_vectors} vectors but num_vectors={num_vectors}"
            )
        values = np.asarray(table.values, dtype=np.float32)

        top_labels, _, _ = kmeans_cluster(
            values,
            num_clusters=self.num_top_clusters,
            num_iterations=self.num_iterations,
        )
        num_top = int(top_labels.max()) + 1

        # Split the leaf budget across top-level clusters proportionally to
        # their size (at least one leaf each).
        counts = np.bincount(top_labels, minlength=num_top)
        leaves_per_cluster = np.maximum(
            1, np.round(self.num_sub_clusters * counts / max(1, counts.sum())).astype(int)
        )

        order_parts = []
        total_leaves = 0
        for cluster in range(num_top):
            member_ids = np.where(top_labels == cluster)[0]
            if member_ids.size == 0:
                continue
            leaves = int(min(leaves_per_cluster[cluster], member_ids.size))
            total_leaves += leaves
            if leaves <= 1:
                order_parts.append(member_ids)
                continue
            sub_labels, _, _ = kmeans_cluster(
                values[member_ids],
                num_clusters=leaves,
                num_iterations=self.num_iterations,
                seed=1 + cluster,
            )
            order_parts.append(member_ids[np.argsort(sub_labels, kind="stable")])

        order = np.concatenate(order_parts).astype(np.int64)
        return PartitionResult(
            order=order,
            details={
                "num_top_clusters": num_top,
                "num_leaf_clusters": total_leaves,
            },
        )
