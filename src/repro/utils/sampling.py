"""Sampling primitives shared by the trace generators and miniature caches.

The miniature-cache technique (Waldspurger et al., ATC'17) relies on *spatial*
hash sampling: a key is either always sampled or never sampled, so the reuse
pattern of the sampled sub-population is statistically similar to the full
population.  ``spatial_hash_sample_mask`` implements that selection with a
splittable integer hash so the choice is deterministic, seed-dependent and
independent of request order.  :func:`sample_queries_spatially` keys it on a
vector's NVM block, so a sampled block keeps every one of its vectors.

Both trace generators (:mod:`repro.workloads.generator` and
:mod:`repro.scenarios.generators`) synthesise in two phases that together
consume the seeded stream exactly as drawing and resolving one query at a time
would:

1. **Draw, per query.**  A Python loop makes only the random draws, in the
   per-query order its module documents; every law's draws are uniforms
   (``rng.random``) or integers, kept as drawn.
2. **Resolve, per batch.**  Once :data:`RESOLVE_DRAWS` picks are pending, at a
   query boundary, and whenever the generator must (a window's laws about to
   change, the end of the call), the pending queries are resolved together.
   Each law inverts all of its uniforms at once (:func:`invert_sorted`), the
   generator turns its picks into positions in an id array, and
   :func:`resolve_queries` keeps each query's first occurrences in draw order
   and cuts the query to its size.

:class:`InverseCDFSampler` makes the split exact: ``invert(rng.random(size))``
is ``Generator.choice(n, size, p=law)``, so uniforms drawn now and inverted
later give the same indices.  The rest rests on two properties of NumPy's
``Generator``, pinned by name in ``tests/test_generator.py``
(``TestStreamFacts``): consecutive ``random`` calls return the same values and
leave the same state as one joined call, and ``integers(0, 1, size=k)``
consumes nothing.  :func:`first_occurrences` is the draw-order de-duplication
the flash-crowd generator applies to a query after diverting some of its
lookups.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Union

import numpy as np

from repro.utils.validation import check_fraction, check_positive

if TYPE_CHECKING:
    from repro.nvm.block import BlockLayout

# Constants of the splitmix64 finaliser, a well-mixed 64-bit integer hash.
_SPLITMIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MULT_2 = np.uint64(0x94D049BB133111EB)
_SPLITMIX_INCR = np.uint64(0x9E3779B97F4A7C15)

# How far a law's sum may sit from one: the tolerance ``Generator.choice`` uses.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 hash of an int array, returning uint64."""
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64) + _SPLITMIX_INCR
        z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_MULT_1
        z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MULT_2
        z = z ^ (z >> np.uint64(31))
    return z


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


def poisson_query_sizes(rng: np.random.Generator, mean: float, count: int) -> List[int]:
    """``count`` Poisson(``mean``) query sizes, each at least one lookup."""
    return np.maximum(rng.poisson(lam=mean, size=count), 1).tolist()


def invert_sorted(sampler: InverseCDFSampler, uniforms: np.ndarray) -> np.ndarray:
    """``sampler.invert(uniforms)``, searched in sorted order (faster, equal)."""
    ascending = uniforms.argsort()
    inverted = np.empty(uniforms.size, dtype=np.int64)
    inverted[ascending] = sampler.invert(uniforms[ascending])
    return inverted


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
    # (Array methods rather than NumPy's Python-level functions: the
    # flash-crowd generator resolves some queries one at a time.)
    num, total = picks.size, positions.size
    starts = picks.cumsum() - picks
    span = int(picks.max())

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
    de-duplicates a query with this again after diverting some of its lookups
    onto the crowd (:func:`resolve_queries` de-duplicates undiverted queries).
    """
    _, first_positions = np.unique(ids, return_index=True)
    return ids[np.sort(first_positions)]


def zipf_probabilities(n: int, alpha: float) -> np.ndarray:
    """Return the probability vector of a Zipf(alpha) law over ``n`` ranks.

    ``alpha = 0`` degenerates to the uniform distribution; larger ``alpha``
    concentrates mass on the most popular ranks.  The vector is normalised to
    sum to one.
    """
    check_positive(n, "n")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    ranks = np.arange(1, int(n) + 1, dtype=np.float64)
    weights = ranks ** (-float(alpha))
    return weights / weights.sum()
