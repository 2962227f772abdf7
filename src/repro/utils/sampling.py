"""Sampling primitives shared by the trace generators and miniature caches.

The miniature-cache technique (Waldspurger et al., ATC'17) relies on *spatial*
hash sampling: a key is either always sampled or never sampled, so the reuse
pattern of the sampled sub-population is statistically similar to the full
population.  ``spatial_hash_sample_mask`` implements that selection with a
splittable integer hash so the choice is deterministic, seed-dependent and
independent of request order.  :func:`sample_queries_spatially` keys it on a
vector's NVM block, so a sampled block keeps every one of its vectors.

Both trace generators — Table 1's (:mod:`repro.workloads.generator`) and
the scenarios' (:mod:`repro.scenarios.generators`) — draw from counter-based
streams (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
2011; Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
OOPSLA 2014): every draw is ``u = splitmix64(key(seed, stream, counter,
slot))`` (:func:`counter_uniforms`), a pure function of its coordinates
rather than of how many draws came before it.  :func:`stream_keys` gives
each (seed, stream) pair its own 64-bit key, so no pair aliases another.  A
uniform carries :data:`UNIFORM_BITS` random bits; :class:`InverseCDFSampler`
inverts one law's CDF, and :class:`StackedLaws` many laws', quantised to the
same grid, in one search.

Both resolve in passes of at most :data:`RESOLVE_DRAWS` picks, cut at query
boundaries: each law inverts its uniforms at once, the generator turns its
picks into positions in an id array, and :func:`resolve_queries` keeps each
query's first occurrences in draw order and cuts the query to its size.
:func:`first_occurrences` is the draw-order de-duplication the flash-crowd
generator applies to (query, id) keys after diverting some of its lookups.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Union

import numpy as np

from repro.utils.validation import (
    check_fraction,
    check_int_at_least,
    check_non_negative,
    check_positive,
)

if TYPE_CHECKING:
    from repro.nvm.block import BlockLayout

# Constants of the splitmix64 finaliser, a well-mixed 64-bit integer hash.
_SPLITMIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MULT_2 = np.uint64(0x94D049BB133111EB)
_SPLITMIX_INCR = np.uint64(0x9E3779B97F4A7C15)

# How far a law's sum may sit from one: the tolerance ``Generator.choice`` uses.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 hash of an int array, returning uint64.

    In place on an array copy, whose integer arithmetic wraps silently.
    """
    z = np.asarray(values).astype(np.uint64)
    z += _SPLITMIX_INCR
    z ^= z >> np.uint64(30)
    z *= _SPLITMIX_MULT_1
    z ^= z >> np.uint64(27)
    z *= _SPLITMIX_MULT_2
    z ^= z >> np.uint64(31)
    return z


#: Random bits in a counter-based uniform: ``u = j * 2**-UNIFORM_BITS`` for
#: the top ``UNIFORM_BITS`` bits ``j`` of its hash.  A law's CDF quantised to
#: the same grid is exact as an integer key beside a row index below 2**22
#: (:class:`StackedLaws`).
UNIFORM_BITS = 40
_UNIFORM_SHIFT = np.uint64(64 - UNIFORM_BITS)
_UNIFORM_SCALE = 2.0**-UNIFORM_BITS
_ROW_SHIFT = UNIFORM_BITS + 1
#: A counter occupies a key's high 32 bits and a slot the low 32.
_SLOT_BITS = np.uint64(32)


def stream_keys(seed: int, count: int) -> List[int]:
    """The 64-bit keys of random streams ``0 .. count - 1`` of ``seed``.

    The first ``count`` words NumPy's ``SeedSequence(seed)`` hashes the seed
    into, so no (seed, stream) pair aliases another: an offset such as
    ``seed + 1`` would make one table's stream the next table's, since
    callers seed table ``i`` with ``base + i``.
    """
    return np.random.SeedSequence(seed).generate_state(count, np.uint64).tolist()


def counter_uniforms(
    key: int, counters: Union[int, np.ndarray], slots: Union[int, np.ndarray]
) -> np.ndarray:
    """The uniform in ``[0, 1)`` of each (counter, slot) pair of stream ``key``.

    ``splitmix64(key + (counter * 2**32 + slot + 1) * gamma)``: the
    ``counter * 2**32 + slot + 1``-th output of SplitMix64 started at
    ``key``, its top :data:`UNIFORM_BITS` bits scaled to ``[0, 1)``.
    Counters and slots are non-negative and below ``2**32``, and broadcast;
    one of them is an array.
    """
    counter = np.asarray(counters, dtype=np.uint64) << _SLOT_BITS
    values = (counter | np.asarray(slots, dtype=np.uint64)) * _SPLITMIX_INCR
    values += np.uint64(key)
    return (_splitmix64(values) >> _UNIFORM_SHIFT) * _UNIFORM_SCALE


class StackedLaws:
    """Several laws over rows, inverted in one search.

    Row ``r``'s law is its entries' CDF (ascending rows, each row's CDF
    non-decreasing up to 1), and entry ``k`` of the row draws ``values[k]``.
    Entry keys are ``r * 2**(UNIFORM_BITS + 1) + ceil(cdf * 2**UNIFORM_BITS)``
    and a uniform ``u = j * 2**-UNIFORM_BITS`` of row ``r`` searches
    ``r * 2**(UNIFORM_BITS + 1) + j``.  ``ceil(c * 2**B) <= j`` exactly when
    ``c <= u``, so :meth:`invert` draws the entry
    ``InverseCDFSampler(law).invert(u)`` draws, for every row at once.
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, rows: np.ndarray, cdf: np.ndarray, values: np.ndarray) -> None:
        self._keys = (rows << _ROW_SHIFT) + np.ceil(cdf * 2.0**UNIFORM_BITS).astype(np.int64)
        self._values = values

    def invert(self, rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """The value each counter-based uniform draws from its row's law."""
        keys = (rows << _ROW_SHIFT) + (uniforms * 2.0**UNIFORM_BITS).astype(np.int64)
        # Searched in ascending order: faster than in draw order, and equal.
        ascending = keys.argsort()
        found = np.empty(keys.size, dtype=np.int64)
        found[ascending] = self._keys.searchsorted(keys[ascending], side="right")
        return self._values[found]


def _log_factorials(n: int) -> np.ndarray:
    """``log(k!)`` for ``k`` in ``0 .. n``."""
    return np.concatenate(([0.0], np.log(np.arange(1, n + 1)).cumsum()))


def poisson_probabilities(mean: float) -> np.ndarray:
    """Poisson(``mean``) probabilities of ``0, 1, ...``, renormalised after
    ``mean + 12 sqrt(mean) + 12``, beyond which the tail is negligible."""
    check_positive(mean, "mean")
    top = int(mean + 12 * np.sqrt(mean) + 12)
    k = np.arange(top + 1)
    law = np.exp(k * np.log(mean) - mean - _log_factorials(top))
    return law / law.sum()


def binomial_laws(max_trials: int, p: float) -> StackedLaws:
    """Binomial(``n``, ``p``) for every ``n`` in ``0 .. max_trials``, with
    ``0 < p < 1``: row ``n`` of the returned laws draws a success count."""
    n = np.arange(max_trials + 1)
    rows = n.repeat(n + 1)
    k = np.arange(rows.size) - (n * (n + 1) // 2).repeat(n + 1)
    log_factorial = _log_factorials(max_trials)
    log_law = (
        log_factorial[rows] - log_factorial[k] - log_factorial[rows - k]
        + k * np.log(p) + (rows - k) * np.log1p(-p)
    )
    cumulative = np.exp(log_law).cumsum()
    # Each row's CDF: the running sum since the row began, over the row's sum.
    last = (n + 1) * (n + 2) // 2 - 1
    within = cumulative - np.concatenate(([0.0], cumulative[last[:-1]])).repeat(n + 1)
    return StackedLaws(rows, within / within[last].repeat(n + 1), k)


def spatial_hash_sample_mask(ids: np.ndarray, rate: float, seed: int = 0) -> np.ndarray:
    """Return a boolean mask selecting ids whose hash falls under ``rate``.

    The same id always receives the same decision for a given ``seed``,
    regardless of where it appears in the request stream — the property the
    miniature-cache technique depends on.

    Parameters
    ----------
    ids:
        Integer array of keys (vector or block ids; any shape).
    rate:
        Sampling rate in ``[0, 1]``.
    seed:
        Changes the hash so independent samples can be drawn.
    """
    check_fraction(rate, "rate")
    ids = np.asarray(ids, dtype=np.int64)
    if rate >= 1.0:
        return np.ones(ids.shape, dtype=bool)
    if rate <= 0.0:
        return np.zeros(ids.shape, dtype=bool)
    with np.errstate(over="ignore"):
        seed_mix = np.uint64(seed % (2**64)) * np.uint64(0x5851F42D4C957F2D)
        hashed = _splitmix64(ids.view(np.uint64) ^ seed_mix)
    threshold = np.uint64(int(rate * float(np.iinfo(np.uint64).max)))
    return hashed < threshold


def sample_queries_spatially(
    queries: Sequence[np.ndarray], layout: "BlockLayout", rate: float, seed: int = 0
) -> List[np.ndarray]:
    """Spatially sample every query in a trace by block, dropping empty queries.

    Used to build the miniature-cache request stream.  The hash of
    :func:`spatial_hash_sample_mask` is taken of ``layout.block_of(id)``, so a
    block is kept or dropped whole: a sampled block's demand misses offer
    the prefetcher the same neighbours the real cache sees (sampling vector
    ids would keep about ``rate`` of them and understate every prefetch's
    benefit by that factor).  The whole stream is hashed in one pass and cut
    back at the query boundaries, so the returned arrays are slices of one
    shared array.
    """
    arrays = [np.asarray(query, dtype=np.int64) for query in queries]
    if not arrays:
        return []
    flat = np.concatenate(arrays)
    mask = spatial_hash_sample_mask(layout.block_of(flat), rate, seed=seed)
    kept = flat[mask]
    # kept_before[i] = sampled ids among the first i lookups of the stream.
    kept_before = np.concatenate(([0], np.cumsum(mask)))
    ends = np.cumsum([array.size for array in arrays])
    cuts = [0] + kept_before[ends].tolist()
    return [
        kept[start:stop] for start, stop in zip(cuts[:-1], cuts[1:]) if stop > start
    ]


class InverseCDFSampler:
    """Draws category indices from one fixed probability law.

    The law is validated and its CDF tabulated once, at construction; a draw
    is one uniform and one binary search per sample (:meth:`invert`).  That is
    exactly what ``Generator.choice(n, size, p=probabilities)`` computes —
    after re-validating and re-summing ``p`` on every call — so for the same
    generator state ``invert(rng.random(size))`` and ``choice`` return the
    same indices and leave the generator in the same state.  A trace built on
    this sampler is therefore a pure function of its seed that does not
    depend on ``choice``'s internals.

    Parameters
    ----------
    probabilities:
        One-dimensional, non-empty, non-negative, NaN-free vector summing to
        one (within ``sqrt(float64 eps)``, the tolerance ``choice`` uses).
        Zero entries are allowed and are never drawn.
    """

    __slots__ = ("_cdf",)

    def __init__(self, probabilities: np.ndarray) -> None:
        p = np.asarray(probabilities, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError(f"probabilities must be 1-dimensional, got shape {p.shape}")
        if p.size == 0:
            raise ValueError("probabilities must be non-empty")
        if np.isnan(p).any():
            raise ValueError("probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("probabilities are not non-negative")
        total = float(p.sum())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"probabilities do not sum to 1, got {total!r}")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def invert(self, uniforms: Union[float, np.ndarray]) -> Union[np.integer, np.ndarray]:
        """The index each uniform in ``[0, 1)`` draws: its place in the CDF.

        ``invert(rng.random(size))`` is ``rng.choice(n, size, p=law)``, so
        uniforms drawn now and inverted later give the same indices.  Sorted
        uniforms search faster and invert to the same indices.
        """
        return self._cdf.searchsorted(uniforms, side="right")


#: Most picks resolved at once: the pending queries are resolved at the first
#: query boundary where this many are pending.  Each of the resolve pass's
#: arrays then stays near 64 KB, below glibc's 128 KB mmap threshold.  Whole
#: 30 000-uniform traffic windows left ``serve-host``'s peak RSS another
#: 0.6 MB higher, and a whole 1 200-query drift trace ``drift-repartition``'s
#: about 0.5 MB, at no measurable gain in speed; heap state left by large
#: freed blocks can also move the benchmark's reference kernel, which
#: calibrates every host time.  The generators read it at the start of each
#: call, so it is patched here.
RESOLVE_DRAWS = 1 << 13


def ranks_within(counts: np.ndarray) -> np.ndarray:
    """``0, 1, ..., count - 1`` for each of a non-empty array of counts,
    concatenated: each item's rank in its group."""
    ends = counts.cumsum()
    return np.arange(ends[-1]) - (ends - counts).repeat(counts)


def resolve_queries(
    positions: np.ndarray, picks: np.ndarray, sizes: np.ndarray, ids: np.ndarray
) -> List[np.ndarray]:
    """Each query's first ``size`` distinct picks, in draw order, as ids.

    ``positions`` holds every query's picks concatenated, as indices into
    ``ids``; ``picks`` (at least one each) and ``sizes`` are per query, all
    int64.  A position names one id, so keeping a position's first
    occurrence in its query de-duplicates ids.  The returned arrays are
    slices of one shared array.
    """
    # (Array methods rather than NumPy's Python-level functions: each of
    # those is one more Python call per resolve pass.)
    num, total = picks.size, positions.size
    starts = picks.cumsum() - picks
    span = int(np.maximum.reduce(picks))

    # Each (query, position)'s first occurrence is the smallest of its sorted
    # (query, position, offset in the query) keys.  Packed into one int64:
    # queries × ids.size × longest query < 2**63.
    keys = (np.arange(num).repeat(picks) * ids.size + positions) * span
    keys += np.arange(total) - starts.repeat(picks)
    keys.sort()
    groups = keys // span
    first = np.empty(total, dtype=bool)
    first[0] = True
    np.not_equal(groups[1:], groups[:-1], out=first[1:])
    firsts = keys[first]
    keep = np.zeros(total, dtype=bool)
    keep[starts[firsts // (ids.size * span)] + firsts % span] = True
    kept = keep.nonzero()[0]

    # Cut each query's first occurrences, in draw order, to its size.
    bounds = np.concatenate((kept.searchsorted(starts), [kept.size]))
    distinct = bounds[1:] - bounds[:-1]
    rank = np.arange(kept.size) - bounds[:-1].repeat(distinct)
    resolved = ids[positions[kept[rank < sizes.repeat(distinct)]]]
    ends = np.minimum(distinct, sizes).cumsum().tolist()
    return [resolved[start:stop] for start, stop in zip([0] + ends[:-1], ends)]


def first_occurrences(ids: np.ndarray) -> np.ndarray:
    """Keep each id's first occurrence, preserving draw order.

    A request reads each id at most once; the flash-crowd generator
    de-duplicates its flash-window queries with this again, on (query, id)
    keys, after diverting some of their lookups onto the crowd
    (:func:`resolve_queries` de-duplicates undiverted queries).
    """
    _, first_positions = np.unique(ids, return_index=True)
    return ids[np.sort(first_positions)]


def zipf_probabilities(n: int, alpha: float) -> np.ndarray:
    """Return the probability vector of a Zipf(alpha) law over ``n`` ranks.

    ``alpha = 0`` degenerates to the uniform distribution; larger ``alpha``
    concentrates mass on the most popular ranks.  The vector is normalised to
    sum to one.
    """
    n = check_int_at_least(n, 1, "n")
    check_non_negative(alpha, "alpha")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(alpha))
    return weights / weights.sum()
