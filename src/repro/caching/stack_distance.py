"""Mattson stack distances and LRU hit-rate curves (the paper's Figure 3).

The stack distance of an access is the number of *distinct* vectors referenced
since the previous access to the same vector — equivalently its rank from the
top of an infinite LRU queue at the moment of the access.  Because LRU has the
inclusion property, a single pass computing stack distances yields the hit
rate of *every* cache size at once: an access hits in a cache of ``c`` vectors
iff its stack distance is ``≤ c``.

Counting, not simulating
------------------------
For a warm access at position ``p`` whose previous access to the same id was
at ``prev_p``, the window between them holds ``p - prev_p - 1`` accesses, and
every repeat inside it is an access ``q < p`` with ``prev_q > prev_p``, so

    d_p = p - prev_p - #{q < p : prev_q > prev_p}.

The count is an inversion count over the ``m`` warm accesses' previous
occurrences.  Rank-compressed to a permutation of ``0..m-1``, it takes
⌈log₂ m⌉ vectorised stable-partition passes, most significant bit first (one
level of a wavelet tree each): inside a group that shares the higher bits, an
element whose bit is 0 is smaller than every earlier element whose bit is 1.
That is O(N log N) over N accesses, with no per-access or per-chunk Python
loop; transients are O(N) and, below 2²⁹ accesses, 32-bit.  The per-access
Fenwick-tree loop it replaced is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import (
    AtLeast,
    check_array_1d_ints,
    check_fraction,
    check_int_at_least,
    validate_fields,
)
from repro.workloads.trace import Trace

#: Marker used for compulsory (first-time) accesses, which hit in no finite cache.
COLD_MISS = -1


def _earlier_greater_counts(ranks: np.ndarray) -> np.ndarray:
    """``#{j < i : ranks[j] > ranks[i]}`` for every ``i`` of a permutation of ``0..m-1``.

    Each pass stably partitions the current arrangement by one more bit.  The
    arrangement is always sorted by the bits above the current one, and since
    the values are exactly ``0..m-1``, the group with prefix ``g`` starts at
    ``g << (bit + 1)`` and every earlier group is full: the ones before it
    number ``g << bit``.  No search and no sort: a pass is scans and a scatter.
    """
    m = ranks.size
    dtype = ranks.dtype
    values = ranks.copy()
    counts = np.zeros(m, dtype=dtype)
    positions = np.arange(m, dtype=dtype)
    next_values = np.empty_like(values)
    next_counts = np.empty_like(counts)
    for bit in reversed(range((m - 1).bit_length())):
        ones = (values >> bit) & 1
        # Ones earlier in this element's group: all ones before it, less the
        # ``g << bit`` in the full groups before its own.
        ones_before = ones.cumsum(dtype=dtype)
        ones_before -= ones
        ones_before -= (positions >> (bit + 1)) << bit
        counts += ones_before * (ones ^ 1)
        # A 0 moves back past the ones before it; a 1 moves to the upper half
        # of its group, past the zeros after it.  (Arithmetic, not
        # ``np.where``: an int mask costs a conversion there.)
        offset = positions & ((1 << (bit + 1)) - 1)
        jump = (1 << bit) - offset + 2 * ones_before
        destination = (positions - ones_before + ones * jump).astype(np.intp)
        next_values[destination] = values
        next_counts[destination] = counts
        values, next_values = next_values, values
        counts, next_counts = next_counts, counts
    # Fully partitioned, the arrangement is sorted: ``counts[k]`` belongs to rank k.
    return counts[ranks]


def _warm_stack_distances(stream: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(positions, stack distances) of the warm accesses of a 1-D ``int64`` stream."""
    n = stream.size
    # Every intermediate of a pass stays below 4n, so 32 bits hold it up to here.
    dtype = np.int32 if n < 2**29 else np.int64
    # Previous access to the same id: neighbours in a stable sort by id.
    order = np.argsort(stream, kind="stable").astype(dtype, copy=False)
    sorted_ids = stream[order]
    same = sorted_ids[1:] == sorted_ids[:-1]
    previous = np.full(n, -1, dtype=dtype)
    previous[order[1:][same]] = order[:-1][same]
    positions = np.flatnonzero(previous >= 0).astype(dtype, copy=False)
    prev = previous[positions]
    # Rank-compress the (distinct) previous occurrences to 0..m-1.
    has_next = np.zeros(n, dtype=bool)
    has_next[prev] = True
    ranks = (has_next.cumsum(dtype=dtype) - 1)[prev]
    repeats = _earlier_greater_counts(ranks)
    return positions, positions - prev - repeats


def compute_stack_distances(id_stream: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    """Stack distance of every access in an id stream.

    Returns an int64 array the same length as the stream; compulsory (first)
    accesses are marked :data:`COLD_MISS`.  Distances are 1-based: a distance
    of 1 means the vector was the most recently used one.  Ids are any
    integers (sparse, negative or 64-bit); a stream of non-integers or of more
    than one dimension raises.
    """
    stream = check_array_1d_ints(id_stream, "id_stream")
    distances = np.full(stream.size, COLD_MISS, dtype=np.int64)
    positions, warm = _warm_stack_distances(stream)
    distances[positions] = warm
    return distances


@dataclass(frozen=True)
class HitRateCurve:
    """Hit rate as a function of cache size (in vectors) for one table.

    Attributes
    ----------
    cache_sizes:
        Monotonically increasing cache sizes.
    hit_rates:
        Hit rate achieved at each size, each in ``[0, 1]``.
    total_lookups:
        Number of lookups the curve was measured over; used to convert rates
        into absolute hit counts when splitting a DRAM budget across tables.
    """

    cache_sizes: np.ndarray
    hit_rates: np.ndarray
    total_lookups: Annotated[int, AtLeast(0)]

    def __post_init__(self) -> None:
        validate_fields(self)
        sizes = np.asarray(self.cache_sizes, dtype=np.int64)
        rates = np.asarray(self.hit_rates, dtype=np.float64)
        if sizes.shape != rates.shape or sizes.ndim != 1:
            raise ValueError("cache_sizes and hit_rates must be 1-D arrays of equal length")
        if sizes.size and np.any(np.diff(sizes) < 0):
            raise ValueError("cache_sizes must be non-decreasing")
        outside = ~((rates >= 0.0) & (rates <= 1.0))  # NaN included
        if outside.any():
            index = int(np.argmax(outside))
            check_fraction(float(rates[index]), f"hit_rates[{index}]")
        object.__setattr__(self, "cache_sizes", sizes)
        object.__setattr__(self, "hit_rates", rates)
        object.__setattr__(self, "total_lookups", int(self.total_lookups))

    def hit_rate_at(self, cache_size: float) -> float:
        """Interpolated hit rate at an arbitrary cache size."""
        if self.cache_sizes.size == 0:
            return 0.0
        return float(
            np.interp(cache_size, self.cache_sizes, self.hit_rates, left=0.0)
        )

    def hits_at(self, cache_size: float) -> float:
        """Expected absolute number of hits at the given cache size."""
        return self.hit_rate_at(cache_size) * self.total_lookups


def hit_rate_curve(
    source: Union[Trace, np.ndarray, Sequence[int]],
    cache_sizes: Optional[Sequence[int]] = None,
    num_points: int = 50,
) -> HitRateCurve:
    """Compute the LRU hit-rate curve of a trace or raw id stream.

    Parameters
    ----------
    source:
        Either a :class:`~repro.workloads.trace.Trace` (its lookups are
        flattened in request order) or a 1-D stream of integer ids.
    cache_sizes:
        Cache sizes (in vectors, integers ``>= 0``) at which to evaluate the
        curve.  Defaults to ``num_points`` sizes spread geometrically up to
        the number of distinct vectors in the stream.
    num_points:
        Number of default evaluation points when ``cache_sizes`` is omitted.
    """
    if isinstance(source, Trace):
        stream = source.flatten()
    else:
        stream = check_array_1d_ints(source, "id_stream")
    check_int_at_least(num_points, 0, "num_points")
    if cache_sizes is not None:
        sizes = np.asarray(
            sorted(
                check_int_at_least(size, 0, f"cache_sizes[{index}]")
                for index, size in enumerate(cache_sizes)
            ),
            dtype=np.int64,
        )
    total = stream.size
    if total == 0:
        if cache_sizes is None:
            sizes = np.zeros(1, dtype=np.int64)
        return HitRateCurve(sizes, np.zeros(sizes.size), total_lookups=0)

    _, distances = _warm_stack_distances(stream)
    if cache_sizes is None:
        distinct = total - distances.size  # one cold miss per distinct id
        sizes = np.unique(np.geomspace(1, distinct, num=num_points).astype(np.int64))

    # Hits at size c = warm accesses with distance <= c (distances run 1..distinct).
    hits_up_to = np.bincount(distances, minlength=1).cumsum()
    hits = hits_up_to[np.minimum(sizes, hits_up_to.size - 1)]
    rates = hits / total
    return HitRateCurve(sizes, rates, total_lookups=int(total))
