"""Densifying id remapper for sparse key universes.

External cache traces (Twitter/Meta open traces, hashed production keys) use
sparse 64-bit key spaces, but the cache stack —
:class:`~repro.caching.engine.BatchReplayEngine` (its id→block map) and
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

import numpy as np
import numpy.typing as npt

from repro.utils.validation import check_array_1d_ints


class IdRemapper:
    """Bijection between a sparse id universe and the dense range ``[0, n)``.

    The dense id of sparse id ``s`` is its rank among all distinct ids the
    remapper was built over.
    """

    def __init__(self, sparse_ids: np.ndarray) -> None:
        sparse_ids = check_array_1d_ints(sparse_ids, "sparse_ids")
        self._sparse = np.unique(sparse_ids)

    @property
    def num_ids(self) -> int:
        """Number of distinct ids — the size of the dense universe."""
        return int(self._sparse.size)

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
