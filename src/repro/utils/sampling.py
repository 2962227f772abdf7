"""Sampling primitives shared by the workload generator and miniature caches.

The miniature-cache technique (Waldspurger et al., ATC'17) relies on *spatial*
hash sampling: a key is either always sampled or never sampled, so the reuse
pattern of the sampled sub-population is statistically similar to the full
population.  ``spatial_hash_sample_mask`` implements that selection with a
splittable integer hash so the choice is deterministic, seed-dependent and
independent of request order.  :func:`sample_queries_spatially` keys it on a
vector's NVM block, so a sampled block keeps every one of its vectors.

The trace generators draw from a few fixed laws many thousands of times;
:class:`InverseCDFSampler` tabulates a law once and is stream-compatible with
``Generator.choice(n, size, p=law)`` (its ``invert`` maps uniforms drawn
earlier), and :func:`first_occurrences` is the draw-order de-duplication the
scenario generators apply to a query's picks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Union

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
    is one uniform and one binary search per sample.  That is exactly what
    ``Generator.choice(n, size, p=probabilities)`` computes — after
    re-validating and re-summing ``p`` on every call — so for the same
    generator state the two return the same indices and leave the generator
    in the same state.  A trace built on this sampler is therefore a pure
    function of its seed that does not depend on ``choice``'s internals.

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

    def draw(
        self, rng: np.random.Generator, size: Optional[int] = None
    ) -> Union[np.integer, np.ndarray]:
        """``size`` indices (one scalar index when ``size`` is None) from ``rng``."""
        return self.invert(rng.random(size))

    def invert(self, uniforms: Union[float, np.ndarray]) -> Union[np.integer, np.ndarray]:
        """The index each uniform in ``[0, 1)`` draws: its place in the CDF.

        ``draw(rng, size)`` is ``invert(rng.random(size))``, so uniforms drawn
        now and inverted later give the same indices.  Sorted uniforms search
        faster and invert to the same indices.
        """
        return self._cdf.searchsorted(uniforms, side="right")


def first_occurrences(ids: np.ndarray) -> np.ndarray:
    """Keep each id's first occurrence, preserving draw order.

    A request reads each id at most once; the scenario generators over-draw a
    query's picks and de-duplicate them with this before truncating to the
    query size.
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
