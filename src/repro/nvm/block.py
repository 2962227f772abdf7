"""Block layout: the mapping from embedding-vector ids to NVM blocks.

A placement algorithm (identity, K-means, SHP, ...) produces an *order* — a
permutation of vector ids giving their physical storage order.  Packing that
order into fixed-size blocks of ``vectors_per_block`` vectors yields the
:class:`BlockLayout`, which the cache and the device use to answer two
questions: *which block holds vector v?* and *which vectors share v's block?*
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import numpy.typing as npt

from repro.utils.validation import check_array_1d_ints, check_positive


class BlockLayout:
    """Mapping between vector ids and (block, slot) physical positions.

    Parameters
    ----------
    order:
        Permutation of ``range(num_vectors)``; ``order[i]`` is the vector id
        stored at physical position ``i``.
    vectors_per_block:
        Number of vectors packed into one NVM block (the paper uses
        4096 B / 128 B = 32).  The final block may be partially filled.
    """

    def __init__(self, order: Iterable[int], vectors_per_block: int) -> None:
        order = check_array_1d_ints(order, "order")
        check_positive(vectors_per_block, "vectors_per_block")
        num_vectors = order.size
        if num_vectors == 0:
            raise ValueError("order must contain at least one vector id")
        # Validate that `order` is a permutation of 0..n-1.
        seen = np.zeros(num_vectors, dtype=bool)
        if order.min() < 0 or order.max() >= num_vectors:
            raise ValueError("order must be a permutation of range(num_vectors)")
        seen[order] = True
        if not seen.all():
            raise ValueError("order must be a permutation of range(num_vectors)")

        self.vectors_per_block = int(vectors_per_block)
        self.num_vectors = int(num_vectors)
        self._order = order
        positions = np.empty(num_vectors, dtype=np.int64)
        positions[order] = np.arange(num_vectors, dtype=np.int64)
        self._block_of = positions // self.vectors_per_block
        self._slot_of = positions % self.vectors_per_block

    # ------------------------------------------------------------------ basic
    @property
    def order(self) -> np.ndarray:
        """The physical storage order (position -> vector id)."""
        return self._order

    @property
    def num_blocks(self) -> int:
        """Number of NVM blocks needed to hold the table."""
        return int(
            (self.num_vectors + self.vectors_per_block - 1) // self.vectors_per_block
        )

    @classmethod
    def identity(cls, num_vectors: int, vectors_per_block: int) -> "BlockLayout":
        """The original (id-ordered) layout used as the paper's baseline."""
        return cls(np.arange(int(num_vectors), dtype=np.int64), vectors_per_block)

    # ----------------------------------------------------------------- queries
    def block_of(self, vector_ids: npt.ArrayLike) -> np.ndarray:
        """Block index holding each of the given vector ids."""
        ids = check_array_1d_ints(vector_ids, "vector_ids")
        self._check_ids(ids)
        return self._block_of[ids]

    def slot_of(self, vector_ids: npt.ArrayLike) -> np.ndarray:
        """Slot (offset within the block) of each of the given vector ids."""
        ids = check_array_1d_ints(vector_ids, "vector_ids")
        self._check_ids(ids)
        return self._slot_of[ids]

    def vectors_in_block(self, block_id: int) -> np.ndarray:
        """Vector ids stored in the given block, in slot order."""
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(f"block_id {block_id} out of range [0, {self.num_blocks})")
        start = block_id * self.vectors_per_block
        stop = min(start + self.vectors_per_block, self.num_vectors)
        return self._order[start:stop]

    def blocks_for_query(self, vector_ids: npt.ArrayLike) -> np.ndarray:
        """Distinct blocks that must be read to serve a query (its *fanout*)."""
        if len(vector_ids) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.block_of(vector_ids))

    def fanout(self, vector_ids: npt.ArrayLike) -> int:
        """Number of distinct blocks a query touches."""
        return int(self.blocks_for_query(vector_ids).size)

    def average_fanout(self, queries: Iterable[npt.ArrayLike]) -> float:
        """Average fanout over a sequence of queries (the SHP objective, Eq. 3)."""
        queries = list(queries)
        if not queries:
            return 0.0
        return float(np.mean([self.fanout(q) for q in queries]))

    # ----------------------------------------------------------------- private
    def _check_ids(self, ids: np.ndarray) -> None:
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_vectors):
            raise IndexError(
                f"vector ids must be in [0, {self.num_vectors}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockLayout(num_vectors={self.num_vectors}, "
            f"vectors_per_block={self.vectors_per_block}, "
            f"num_blocks={self.num_blocks})"
        )
