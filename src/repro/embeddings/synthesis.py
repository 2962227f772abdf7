"""Synthetic embedding values correlated with the workload's co-access topics.

The paper's semantic-partitioning hypothesis is that vectors close in
Euclidean space are accessed at close temporal intervals.  Whether K-means
placement helps therefore depends entirely on how strongly geometry correlates
with co-access.  The trace generator groups vectors into latent *topics* that
drive co-access; this module gives every topic a centroid in embedding space
and scatters its member vectors around it, with a tunable ``noise`` level:

* ``noise = 0`` — geometry perfectly mirrors co-access (K-means can in
  principle match SHP),
* large ``noise`` — geometry is uninformative (K-means degenerates to random
  placement), reproducing the paper's observation that Euclidean proximity is
  an imperfect proxy for temporal proximity.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive


def synthesize_topic_vectors(
    topic_of: np.ndarray,
    dim: int = 64,
    noise: float = 0.5,
    seed: int = 0,
    dtype: np.dtype = np.float16,
) -> np.ndarray:
    """Create embedding values clustered around per-topic centroids.

    Parameters
    ----------
    topic_of:
        Topic index per vector id (``-1`` marks vectors outside the active
        set; they receive pure noise).
    dim:
        Vector dimensionality.
    noise:
        Standard deviation of the per-vector scatter around its topic
        centroid, relative to the centroids' own (unit) standard deviation.
    seed:
        Random seed.
    dtype:
        Output dtype (fp16 matches the paper's tables).

    Returns
    -------
    numpy.ndarray of shape ``(len(topic_of), dim)``.
    """
    check_positive(dim, "dim")
    check_non_negative(noise, "noise")
    topic_of = np.asarray(topic_of, dtype=np.int64)
    if topic_of.ndim != 1:
        raise ValueError("topic_of must be one-dimensional")
    rng = ensure_rng(seed)
    num_vectors = topic_of.size
    num_topics = int(topic_of.max()) + 1 if (topic_of >= 0).any() else 0

    # Default: unclustered noise for inactive vectors.
    values = rng.normal(size=(num_vectors, dim))
    if num_topics > 0:
        centroids = rng.normal(size=(num_topics, dim))
        active = topic_of >= 0
        scatter = rng.normal(scale=noise, size=(int(active.sum()), dim))
        values[active] = centroids[topic_of[active]] + scatter
    return values.astype(dtype)
