"""Adversarial scenario trace generators.

Each generator produces a plain :class:`~repro.workloads.trace.Trace` over a
dense id universe, so scenarios compose with everything downstream —
:meth:`BandanaStore.build <repro.core.bandana.BandanaStore.build>`, the
windowed replay of :func:`repro.scenarios.runner.run_workload_scenario` and
the event-driven :func:`repro.serving.simulate_serving`.

The two kinds stress two assumptions Bandana's offline pipeline bakes in at
build time:

* **drift** attacks the *placement*: lookups follow a Zipf law over a ranked
  permutation of the ids, and every ``drift_epoch_queries`` queries the
  ranking rotates by ``drift_rotation_per_epoch × num_vectors`` positions.
  A placement trained on the first epochs packs the then-hot ids into a few
  blocks; as the ranking rotates, the hot set migrates onto ids that SHP
  scattered across cold blocks, and the prefetch hit rate decays.
* **flash-crowd** attacks the *admission policy and the tail*: during the
  flash window, ``flash_traffic_share`` of the lookups converge on a handful
  of previously-cold ids (the bottom of the ranking).  Those ids have low
  training-trace access counts, so the tuned threshold refuses to prefetch
  their block neighbours right when locality spikes — and the miss burst is
  what the serving-latency leg's p999 measures.

Drift with ``drift_rotation_per_epoch=0`` is the stationary control arm.

Synthesis runs in two phases that together consume the seeded stream exactly
as drawing and resolving one query at a time would (the per-query loop is the
oracle in ``tests/test_scenario_synthesis.py``):

1. **Draw, per query.**  A Python loop makes only the random draws, in the
   per-query order: the community uniform, the community members
   (``integers(COMMUNITY_SIZE, size=k)``), then one ``random(draw)`` call for
   the global picks.  A drift rotation is not applied to the ranking: each
   query records its offset into it.
2. **Resolve, per batch.**  Once ``_RESOLVE_DRAWS`` picks are pending, at a
   query boundary, and at the end, one NumPy pass inverts each Zipf law's
   uniforms over sorted keys, maps rank positions (shifted by each query's
   offset) to ids, keeps each query's first occurrences in draw order with
   one stable sort of packed (query, position) keys, and cuts each query to
   its size.  A batch may span several rotations.

Inside the flash window a query's diversion draws depend on how many
distinct ids it kept, so there each query is resolved on its own before
they are made; before and after the window flash-crowd batches as drift does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.scenarios.config import COMMUNITY_SIZE, FLASH_START_FRACTION, ScenarioConfig
from repro.utils.rng import ensure_rng
from repro.utils.sampling import (
    InverseCDFSampler,
    first_occurrences,
    zipf_probabilities,
)
from repro.workloads.trace import Trace

#: Skew of the popularity law over the ranked ids (and over the community
#: ranking).
ZIPF_ALPHA = 0.9

#: Fraction of each query's lookups drawn from its focus community; the rest
#: are independent draws from the global popularity law.
QUERY_LOCALITY = 0.8

#: Most picks resolved at once: pending queries are resolved at the first
#: query boundary where this many are pending (and at the end), as in the
#: Table 1 generator.  Each of the pass's arrays then stays near 64 KB, below
#: glibc's 128 KB mmap threshold.  Resolving a whole 1 200-query trace at once
#: (arrays near 290 KB) was no faster and left ``drift-repartition``'s peak
#: RSS about 0.5 MB higher, and heap state left by large freed blocks can
#: move the benchmark's reference kernel, which calibrates every host time.
_RESOLVE_DRAWS = 1 << 13


def _query_sizes(config: ScenarioConfig, rng: np.random.Generator) -> List[int]:
    """Poisson query sizes, at least one lookup each."""
    sizes = rng.poisson(lam=config.avg_lookups_per_query, size=config.num_queries)
    return np.maximum(sizes, 1).tolist()


class _QueryLaw:
    """The per-query sampling law over one (rotatable) popularity ranking.

    Each query focuses on one *community* — a contiguous :data:`COMMUNITY_SIZE`
    span of the ranking, chosen by a Zipf law over community rank — and
    draws :data:`QUERY_LOCALITY` of its lookups from that community, the rest
    from a global Zipf law over the ranked ids.  Communities are what give
    SHP block-level structure to discover: co-accessed ids live in the same
    rank span, so a good placement packs them into the same 4 KB blocks.
    Rotating the ranking (drift) migrates every community's membership,
    which is precisely the structure a stale placement loses.

    Both Zipf laws are over *ranks*, which rotation does not touch, so each
    is tabulated once per trace (:class:`~repro.utils.sampling.InverseCDFSampler`).
    A rotation is a query's *offset*: rolling the ranking ``e`` times by
    ``shift`` puts the id of rank ``p`` at ``ranking[(p + e·shift) % n]``.
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator) -> None:
        self.rng = rng
        self.ranking = rng.permutation(config.num_vectors).astype(np.int64)
        self._rank_sampler = InverseCDFSampler(
            zipf_probabilities(config.num_vectors, ZIPF_ALPHA)
        )
        num_communities = config.num_vectors // COMMUNITY_SIZE
        self._community_sampler = InverseCDFSampler(
            zipf_probabilities(num_communities, ZIPF_ALPHA)
        )

    def queries(
        self, sizes: Sequence[int], offsets: Optional[Sequence[int]] = None
    ) -> List[np.ndarray]:
        """Draw and resolve one query per size, each at its ranking offset
        (0 when ``offsets`` is None).

        The loop makes only the random draws, in the per-query order: the
        community uniform, the community members, then the global uniforms.
        The pending queries are resolved whenever :data:`_RESOLVE_DRAWS` picks
        are pending, and at the end.
        """
        random, integers = self.rng.random, self.rng.integers
        queries: List[np.ndarray] = []
        pending = _PendingQueries()
        for index, size in enumerate(sizes):
            within = int(round(size * QUERY_LOCALITY))
            if within:
                pending.community.append(random())
                pending.members.append(integers(COMMUNITY_SIZE, size=within))
            rest = size - within
            draw = max(rest + 2, int(round(rest * 1.2))) if rest else 0
            if draw:
                pending.uniforms.append(random(draw))
            pending.sizes.append(size)
            pending.within.append(within)
            pending.draws.append(draw)
            pending.offsets.append(offsets[index] if offsets else 0)
            pending.picks += within + draw
            if pending.picks >= _RESOLVE_DRAWS:
                queries += self._resolve(pending)
                pending = _PendingQueries()
        queries += self._resolve(pending)
        return queries

    def _resolve(self, pending: "_PendingQueries") -> List[np.ndarray]:
        """Turn pending draws into each query's distinct ids, in draw order.

        A query's picks are its community picks, then its global picks.  Each
        law inverts all of its uniforms in one search over sorted keys, one
        stable sort of (query, rank position) keys finds each pick's first
        occurrence in its query, and each query is cut to its size.
        """
        num = len(pending.sizes)
        if num == 0:
            return []
        # (Array methods rather than NumPy's Python-level functions: a query
        # resolved on its own pays no interpreter calls for them.)
        sizes = np.array(pending.sizes, dtype=np.int64)
        within = np.array(pending.within, dtype=np.int64)
        picks = within + np.array(pending.draws, dtype=np.int64)
        starts = picks.cumsum() - picks
        total = int(starts[-1] + picks[-1])

        # Rank position of every pick: a community's span start plus the
        # member drawn, or the global law's rank.  (Every query picks at
        # least once: a one-lookup query rounds to one community pick.)
        query_of = np.arange(num).repeat(picks)
        in_query = np.arange(total) - starts.repeat(picks)
        from_community = in_query < within.repeat(picks)
        positions = np.empty(total, dtype=np.int64)
        if pending.community:
            community = _invert_sorted(self._community_sampler, np.array(pending.community))
            spans = (community * COMMUNITY_SIZE).repeat(within[within > 0])
            positions[from_community] = spans + np.concatenate(pending.members)
        if pending.uniforms:
            positions[~from_community] = _invert_sorted(
                self._rank_sampler, np.concatenate(pending.uniforms)
            )
        if any(pending.offsets):
            positions += np.array(pending.offsets, dtype=np.int64).repeat(picks)
            positions %= self.ranking.size

        # Each (query, position)'s first occurrence: the first of its run in a
        # stable sort.  A position names one id, so this de-duplicates ids.
        keys = query_of * self.ranking.size + positions
        order = keys.argsort(kind="stable")
        keys = keys[order]
        first = np.empty(total, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keep = np.zeros(total, dtype=bool)
        keep[order[first]] = True
        kept = keep.nonzero()[0]

        # Cut each query's first occurrences, in draw order, to its size.
        bounds = np.concatenate((kept.searchsorted(starts), [kept.size]))
        distinct = bounds[1:] - bounds[:-1]
        rank = np.arange(kept.size) - bounds[:-1].repeat(distinct)
        ids = self.ranking[positions[kept[rank < sizes.repeat(distinct)]]]
        ends = np.minimum(distinct, sizes).cumsum().tolist()
        return [ids[start:stop] for start, stop in zip([0] + ends[:-1], ends)]


class _PendingQueries:
    """Queries drawn but not yet resolved to ids, in draw order."""

    __slots__ = (
        "sizes", "within", "draws", "offsets", "community", "members", "uniforms", "picks"
    )

    def __init__(self) -> None:
        #: Picks drawn so far: community members plus global uniforms.
        self.picks = 0
        self.sizes: List[int] = []
        #: Community picks and global uniforms of each query (0 for none).
        self.within: List[int] = []
        self.draws: List[int] = []
        #: Ranking offset of each query (its drift rotation).
        self.offsets: List[int] = []
        #: The community uniform and members of each query with community picks.
        self.community: List[float] = []
        self.members: List[np.ndarray] = []
        #: The global uniforms of each query with global picks.
        self.uniforms: List[np.ndarray] = []


def _invert_sorted(sampler: InverseCDFSampler, keys: np.ndarray) -> np.ndarray:
    """``sampler.invert(keys)``, searched in sorted order (faster, equal)."""
    ascending = keys.argsort()
    inverted = np.empty(keys.size, dtype=np.int64)
    inverted[ascending] = sampler.invert(keys[ascending])
    return inverted


def _drift_trace(config: ScenarioConfig, rng: np.random.Generator) -> Trace:
    """Popularity drift: the Zipf ranking rotates at every epoch boundary."""
    law = _QueryLaw(config, rng)
    shift = int(round(config.drift_rotation_per_epoch * config.num_vectors))
    start = int(round(config.drift_start_fraction * config.num_queries))
    sizes = _query_sizes(config, rng)
    # The ranking rotates before query i when i > 0, i >= start and i starts
    # an epoch; a query's offset is the rotations so far times the shift.
    index = np.arange(len(sizes))
    rotates = (index > 0) & (index >= start) & (index % config.drift_epoch_queries == 0)
    offsets = np.cumsum(rotates) * shift % config.num_vectors
    return Trace._trusted(law.queries(sizes, offsets.tolist()), config.num_vectors)


def _flash_crowd_trace(config: ScenarioConfig, rng: np.random.Generator) -> Trace:
    """A sudden spike concentrating traffic on previously-cold ids."""
    law = _QueryLaw(config, rng)
    # The crowd converges on the coldest ids of the baseline law.
    crowd = law.ranking[-config.flash_crowd_ids :]
    sizes = _query_sizes(config, rng)
    start = int(round(FLASH_START_FRACTION * config.num_queries))
    end = start + int(round(config.flash_duration_fraction * config.num_queries))
    if config.flash_traffic_share == 0:
        end = start
    # An in-flash query's diversion draws depend on its distinct size, so it
    # is resolved on its own before they are made.
    queries = law.queries(sizes[:start])
    for size in sizes[start:end]:
        ids = law.queries([size])[0]
        diverted = rng.random(ids.size) < config.flash_traffic_share
        if diverted.any():
            replacements = crowd[rng.integers(crowd.size, size=int(diverted.sum()))]
            ids[diverted] = replacements
            # Re-de-duplicate after the diversion (keep first occurrences).
            ids = first_occurrences(ids)
        queries.append(ids)
    queries += law.queries(sizes[end:])
    return Trace._trusted(queries, config.num_vectors)


def generate_scenario_trace(config: ScenarioConfig) -> Trace:
    """Generate the access trace of one scenario (deterministic in the seed)."""
    rng = ensure_rng(config.seed)
    if config.kind == "drift":
        return _drift_trace(config, rng)
    return _flash_crowd_trace(config, rng)
