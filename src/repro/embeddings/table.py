"""The embedding table: a dense matrix of learned feature vectors.

In the paper each table holds 10–20 million vectors of 64 fp16 elements
(128 B).  The table is written during training (every column touched by a data
sample is updated) and read — never modified — during inference.  Bandana only
needs the table's geometry (vector size, count) and a gather API.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import numpy.typing as npt

from repro.utils.validation import check_array_1d_ints, check_positive


class EmbeddingTable:
    """A single embedding table stored as a dense ``(num_vectors, dim)`` matrix.

    Parameters
    ----------
    name:
        Table identifier.
    num_vectors:
        Number of embedding vectors (the table's sparse-id cardinality).
    dim:
        Elements per vector (64 in the paper).
    dtype:
        Element dtype; fp16 matches the paper's 128 B vectors.
    values:
        Optional initial values of shape ``(num_vectors, dim)``.  When omitted
        the table starts at zero (as before training).
    """

    def __init__(
        self,
        name: str,
        num_vectors: int,
        dim: int = 64,
        dtype: npt.DTypeLike = np.float16,
        values: Optional[np.ndarray] = None,
    ) -> None:
        check_positive(num_vectors, "num_vectors")
        check_positive(dim, "dim")
        self.name = str(name)
        self.num_vectors = int(num_vectors)
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        if values is None:
            self._values = np.zeros((self.num_vectors, self.dim), dtype=self.dtype)
        else:
            values = np.asarray(values)
            if values.shape != (self.num_vectors, self.dim):
                raise ValueError(
                    f"values must have shape {(self.num_vectors, self.dim)}, "
                    f"got {values.shape}"
                )
            self._values = values.astype(self.dtype, copy=True)

    # ------------------------------------------------------------------ sizes
    @property
    def vector_bytes(self) -> int:
        """Bytes occupied by one embedding vector."""
        return self.dim * self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Total bytes occupied by the table."""
        return self.num_vectors * self.vector_bytes

    @property
    def values(self) -> np.ndarray:
        """The underlying value matrix (not copied)."""
        return self._values

    # ----------------------------------------------------------------- access
    def gather(self, vector_ids: npt.ArrayLike) -> np.ndarray:
        """Return the vectors for the given ids, shape ``(len(ids), dim)``."""
        ids = check_array_1d_ints(vector_ids, "vector_ids")
        self._check_ids(ids)
        return self._values[ids]

    def pooled(self, vector_ids: npt.ArrayLike) -> np.ndarray:
        """Sum-pool the vectors of one query — the usual sparse-feature reduction."""
        gathered = self.gather(vector_ids)
        if gathered.shape[0] == 0:
            return np.zeros(self.dim, dtype=np.float32)
        return gathered.astype(np.float32).sum(axis=0)

    # ----------------------------------------------------------------- private
    def _check_ids(self, ids: np.ndarray) -> None:
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_vectors):
            raise IndexError(
                f"vector ids must be in [0, {self.num_vectors}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EmbeddingTable(name={self.name!r}, num_vectors={self.num_vectors}, "
            f"dim={self.dim}, dtype={self.dtype})"
        )
