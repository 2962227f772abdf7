"""A DLRM-style recommendation model skeleton built on the embedding tables.

The paper's Figure 1 sketches the serving path: a request carries sparse ids
per table, the corresponding embedding vectors are gathered and pooled, and a
small dense neural network turns the pooled features into a click-probability
score.  The storage system never looks inside the network, but the examples in
this repository use :class:`RecommendationModel` so the end-to-end read path —
ids → Bandana lookups → pooled features → score — is exercised for real.
"""

from __future__ import annotations

from typing import Dict, ItemsView, Iterable, Iterator, Mapping, Optional

import numpy as np

from repro.embeddings.table import EmbeddingTable
from repro.utils.rng import ensure_rng

#: Sizes of the dense network's hidden layers.
HIDDEN_DIMS = (64, 32)
#: Width of a request's dense (not embedded) features; the examples' requests
#: carry none, so the network sees zeros there.
DENSE_DIM = 16
#: Seed of the dense-parameter initialisation.
MODEL_SEED = 0


class EmbeddingModel:
    """A named collection of embedding tables (the model's sparse parameters)."""

    def __init__(self, tables: Optional[Mapping[str, EmbeddingTable]] = None) -> None:
        self._tables: Dict[str, EmbeddingTable] = dict(tables or {})

    def add_table(self, table: EmbeddingTable) -> None:
        """Register a table under its own name; duplicate names are rejected."""
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already registered")
        self._tables[table.name] = table

    def __getitem__(self, name: str) -> EmbeddingTable:
        return self._tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    def items(self) -> ItemsView[str, EmbeddingTable]:
        return self._tables.items()

    @property
    def nbytes(self) -> int:
        """Total bytes of all embedding tables (the DRAM the model would need)."""
        return sum(table.nbytes for table in self._tables.values())

    def pooled_features(self, request: Mapping[str, Iterable[int]]) -> np.ndarray:
        """Gather and sum-pool each table's vectors for one request.

        ``request`` maps table name to the vector ids read from that table.
        The result concatenates the per-table pooled vectors in table
        registration order; tables absent from the request contribute zeros.
        """
        parts = []
        for name, table in self._tables.items():
            ids = np.asarray(request.get(name, []), dtype=np.int64)
            if ids.size:
                parts.append(table.pooled(ids))
            else:
                parts.append(np.zeros(table.dim, dtype=np.float32))
        if not parts:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate(parts)


class RecommendationModel:
    """A small MLP over pooled embedding features (the paper's Figure 1 NN).

    Parameters
    ----------
    embedding_model:
        The sparse parameters (embedding tables).

    The network's shape and initialisation are :data:`HIDDEN_DIMS`,
    :data:`DENSE_DIM` and :data:`MODEL_SEED`.
    """

    def __init__(self, embedding_model: EmbeddingModel) -> None:
        self.embedding_model = embedding_model
        input_dim = sum(table.dim for _, table in embedding_model.items()) + DENSE_DIM
        if input_dim == DENSE_DIM:
            raise ValueError("embedding_model must contain at least one table")
        rng = ensure_rng(MODEL_SEED)
        dims = [input_dim, *HIDDEN_DIMS, 1]
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self._weights.append(
                rng.normal(scale=scale, size=(fan_in, fan_out)).astype(np.float32)
            )
            self._biases.append(np.zeros(fan_out, dtype=np.float32))

    def score(
        self,
        request: Mapping[str, Iterable[int]],
        pooled: Optional[np.ndarray] = None,
    ) -> float:
        """Click-probability score for one request (dense features all zero).

        ``pooled`` lets a caller that already gathered the embeddings (e.g.
        through a :class:`~repro.core.bandana.BandanaStore`) supply the pooled
        features directly; otherwise they are gathered from the embedding
        model in DRAM.
        """
        if pooled is None:
            pooled = self.embedding_model.pooled_features(request)
        pooled = np.asarray(pooled, dtype=np.float32)
        activations = np.concatenate([pooled, np.zeros(DENSE_DIM, dtype=np.float32)])
        for index, (weights, bias) in enumerate(zip(self._weights, self._biases)):
            activations = activations @ weights + bias
            if index < len(self._weights) - 1:
                np.maximum(activations, 0.0, out=activations)  # ReLU
        logit = float(activations[0])
        return 1.0 / (1.0 + np.exp(-logit))
