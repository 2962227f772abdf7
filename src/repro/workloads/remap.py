"""Densifying id remapper for sparse key universes.

External cache traces (Twitter/Meta open traces, hashed production keys) use
sparse 64-bit key spaces, but the cache stack —
:class:`~repro.caching.engine.BatchReplayEngine` (its id→block map and
:class:`~repro.caching.engine.ResidencyBitmap`) and
:class:`~repro.nvm.block.BlockLayout` — allocates flat arrays indexed by
vector id, so it needs ids densely packed in ``[0, num_vectors)``.
:class:`IdRemapper` is the bijection between the two: it collects the
distinct ids a trace actually touches and maps them onto ``[0, n)`` in
sorted order (so the mapping is independent of request order and therefore
stable across trace slices from the same universe).

The replay machinery only ever compares ids for equality, so remapping
changes no counter: a replay of the densified trace is step-for-step the
replay of the original.  Placement quality is likewise untouched — the
partitioners see the same co-access structure under renamed ids.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np
import numpy.typing as npt

from repro.utils.validation import check_array_1d_ints
from repro.workloads.trace import Trace


class IdRemapper:
    """Bijection between a sparse id universe and the dense range ``[0, n)``.

    Build one with :meth:`from_queries` or :meth:`from_trace`; the dense id
    of sparse id ``s`` is its rank among all distinct observed ids.
    """

    def __init__(self, sparse_ids: np.ndarray) -> None:
        sparse_ids = check_array_1d_ints(sparse_ids, "sparse_ids")
        self._sparse = np.unique(sparse_ids)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_queries(cls, queries: Iterable) -> "IdRemapper":
        """Remapper over every id appearing in an iterable of id arrays."""
        arrays = [check_array_1d_ints(q, "query") for q in queries]
        if not arrays:
            return cls(np.empty(0, dtype=np.int64))
        return cls(np.concatenate(arrays))

    @classmethod
    def from_trace(cls, trace: Trace) -> "IdRemapper":
        """Remapper over every id the trace touches."""
        return cls(trace.flatten())

    # ------------------------------------------------------------------- sizes
    @property
    def num_ids(self) -> int:
        """Number of distinct ids — the size of the dense universe."""
        return int(self._sparse.size)

    @property
    def sparse_ids(self) -> np.ndarray:
        """The sorted distinct sparse ids (dense id ``d`` maps to entry ``d``)."""
        return self._sparse

    # ----------------------------------------------------------------- mapping
    def to_dense(self, ids: npt.ArrayLike) -> np.ndarray:
        """Map sparse ids to dense ids, raising on ids never observed."""
        ids = check_array_1d_ints(ids, "ids")
        dense = np.searchsorted(self._sparse, ids)
        inside = dense < self.num_ids
        known = inside.copy()
        known[inside] = self._sparse[dense[inside]] == ids[inside]
        if not known.all():
            unknown = ids[~known]
            raise KeyError(
                f"{unknown.size} id(s) not in the remapped universe "
                f"(first: {int(unknown[0])})"
            )
        return dense

    def to_sparse(self, dense_ids: npt.ArrayLike) -> np.ndarray:
        """Map dense ids back to the original sparse ids."""
        dense_ids = check_array_1d_ints(dense_ids, "dense_ids")
        if dense_ids.size and (
            int(dense_ids.min()) < 0 or int(dense_ids.max()) >= self.num_ids
        ):
            raise KeyError(f"dense ids must be in [0, {self.num_ids})")
        return self._sparse[dense_ids]

    # ------------------------------------------------------------------ traces
    def remap_trace(self, trace: Trace) -> Trace:
        """The same trace with every id densified (``num_vectors = num_ids``)."""
        return Trace(
            [self.to_dense(query) for query in trace.queries],
            num_vectors=self.num_ids,
        )


def densify_trace(trace: Trace) -> Tuple[Trace, IdRemapper]:
    """Densify one table's trace; returns the remapped trace and the mapping."""
    remapper = IdRemapper.from_trace(trace)
    return remapper.remap_trace(trace), remapper
