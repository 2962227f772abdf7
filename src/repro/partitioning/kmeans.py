"""Semantic placement with flat K-means (the paper's Section 4.2.1).

The hypothesis: vectors that are close in embedding space represent similar
content and are therefore accessed at close temporal intervals.  K-means
clusters the vector values and the physical order simply concatenates the
clusters, so members of a cluster land in the same (or adjacent) 4 KB blocks.

The clustering itself is a plain NumPy k-means++ / Lloyd implementation (the
paper uses Faiss; the algorithm is the same).  Its runtime grows with the
number of clusters, which is what the paper's Figure 7a measures and what
motivates the recursive variant.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.embeddings.table import EmbeddingTable
from repro.partitioning.base import Partitioner, PartitionResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


def _kmeans_plus_plus_init(
    values: np.ndarray, num_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids out in data space."""
    num_points = values.shape[0]
    centroids = np.empty((num_clusters, values.shape[1]), dtype=values.dtype)
    first = rng.integers(num_points)
    centroids[0] = values[first]
    # Squared distance to the nearest chosen centroid so far.
    distances = ((values - centroids[0]) ** 2).sum(axis=1)
    for index in range(1, num_clusters):
        total = distances.sum()
        if total <= 0:
            # All remaining points coincide with a centroid; pick uniformly.
            choice = rng.integers(num_points)
        else:
            choice = rng.choice(num_points, p=distances / total)
        centroids[index] = values[choice]
        new_distances = ((values - centroids[index]) ** 2).sum(axis=1)
        np.minimum(distances, new_distances, out=distances)
    return centroids


def kmeans_cluster(
    values: np.ndarray,
    num_clusters: int,
    num_iterations: int = 20,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Cluster ``values`` into ``num_clusters`` groups with Lloyd's algorithm.

    Returns ``(labels, centroids, inertia)`` where ``inertia`` is the final
    sum of squared distances to the assigned centroid.  Cluster count is
    clamped to the number of points.
    """
    check_positive(num_clusters, "num_clusters")
    check_positive(num_iterations, "num_iterations")
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {values.shape}")
    num_points = values.shape[0]
    num_clusters = int(min(num_clusters, num_points))
    rng = ensure_rng(seed)

    if num_clusters == 1:
        centroids = values.mean(axis=0, keepdims=True)
        labels = np.zeros(num_points, dtype=np.int64)
        inertia = float(((values - centroids[0]) ** 2).sum())
        return labels, centroids, inertia

    centroids = _kmeans_plus_plus_init(values, num_clusters, rng)
    labels = np.zeros(num_points, dtype=np.int64)
    for _ in range(int(num_iterations)):
        # Assignment step: nearest centroid by squared Euclidean distance,
        # computed blockwise to bound memory for large tables.
        labels = _assign_labels(values, centroids)
        # Update step.
        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=num_clusters)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, values)
        non_empty = counts > 0
        new_centroids[non_empty] = sums[non_empty] / counts[non_empty, None]
        # Re-seed empty clusters on the points farthest from their centroid.
        empty = np.where(~non_empty)[0]
        if empty.size:
            distances = ((values - new_centroids[labels]) ** 2).sum(axis=1)
            farthest = np.argsort(-distances)[: empty.size]
            new_centroids[empty] = values[farthest]
        if np.allclose(new_centroids, centroids, atol=1e-6):
            centroids = new_centroids
            break
        centroids = new_centroids
    labels = _assign_labels(values, centroids)
    inertia = float(((values - centroids[labels]) ** 2).sum())
    return labels, centroids, inertia


#: Points per nearest-centroid assignment chunk (bounds the score matrix).
ASSIGN_CHUNK = 16384


def _assign_labels(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment, chunked over points to bound memory."""
    labels = np.empty(values.shape[0], dtype=np.int64)
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; ||x||^2 is constant per row.
    centroid_norms = (centroids ** 2).sum(axis=1)
    for start in range(0, values.shape[0], ASSIGN_CHUNK):
        block = values[start : start + ASSIGN_CHUNK]
        scores = block @ centroids.T
        scores *= -2.0
        scores += centroid_norms
        labels[start : start + ASSIGN_CHUNK] = scores.argmin(axis=1)
    return labels


class KMeansPartitioner(Partitioner):
    """Orders vectors by their K-means cluster (semantic placement).

    Parameters
    ----------
    num_clusters:
        Number of clusters (the x-axis of the paper's Figure 6).
    num_iterations:
        Lloyd iterations (the paper uses 20).

    The k-means++ initialisation is seeded with 0, and clusters are laid out
    in label order (the paper specifies no inter-cluster order).
    """

    name = "kmeans"

    def __init__(self, num_clusters: int, num_iterations: int = 20) -> None:
        check_positive(num_clusters, "num_clusters")
        check_positive(num_iterations, "num_iterations")
        self.num_clusters = int(num_clusters)
        self.num_iterations = int(num_iterations)

    def partition(self, num_vectors: int, table: EmbeddingTable) -> PartitionResult:
        num_vectors = self._validate_num_vectors(num_vectors)
        if table.num_vectors != num_vectors:
            raise ValueError(
                f"table has {table.num_vectors} vectors but num_vectors={num_vectors}"
            )
        labels, _, inertia = kmeans_cluster(
            table.values,
            num_clusters=self.num_clusters,
            num_iterations=self.num_iterations,
        )
        order = order_by_labels(labels)
        return PartitionResult(
            order=order,
            details={
                "num_clusters": self.num_clusters,
                "inertia": inertia,
            },
        )


def order_by_labels(labels: np.ndarray) -> np.ndarray:
    """Turn a cluster labelling into a physical order (clusters laid out contiguously)."""
    labels = np.asarray(labels, dtype=np.int64)
    return np.argsort(labels, kind="stable").astype(np.int64)
