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

Synthesis draws per query and resolves per batch, as
:mod:`repro.utils.sampling` describes (the per-query loop is the oracle in
``tests/test_scenario_synthesis.py``).  A query's draws, in order: the
community uniform, the community members (``integers(COMMUNITY_SIZE,
size=k)``), then one ``random(draw)`` call for the global picks.  A drift
rotation is not applied to the ranking: each query records its offset into
it, so a batch may span several rotations.  Inside the flash window a query's
diversion draws depend on how many distinct ids it kept, so there each query
is resolved on its own before they are made; before and after the window
flash-crowd batches as drift does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.scenarios.config import COMMUNITY_SIZE, FLASH_START_FRACTION, ScenarioConfig
from repro.utils import sampling
from repro.utils.rng import ensure_rng
from repro.utils.sampling import (
    InverseCDFSampler,
    first_occurrences,
    invert_sorted,
    poisson_query_sizes,
    resolve_queries,
    zipf_probabilities,
)
from repro.workloads.trace import Trace

#: Skew of the popularity law over the ranked ids (and over the community
#: ranking).
ZIPF_ALPHA = 0.9

#: Fraction of each query's lookups drawn from its focus community; the rest
#: are independent draws from the global popularity law.
QUERY_LOCALITY = 0.8


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
        The pending queries are resolved whenever
        :data:`~repro.utils.sampling.RESOLVE_DRAWS` picks are pending, and at
        the end.
        """
        random, integers = self.rng.random, self.rng.integers
        cap = sampling.RESOLVE_DRAWS
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
            if pending.picks >= cap:
                queries += self._resolve(pending)
                pending = _PendingQueries()
        queries += self._resolve(pending)
        return queries

    def _resolve(self, pending: "_PendingQueries") -> List[np.ndarray]:
        """Turn pending draws into each query's distinct ids, in draw order.

        A query's picks are its community picks, then its global picks, as
        rank positions shifted by the query's offset;
        :func:`~repro.utils.sampling.resolve_queries` maps them through the
        ranking and cuts each query.
        """
        if not pending.sizes:
            return []
        within = np.array(pending.within, dtype=np.int64)
        picks = within + np.array(pending.draws, dtype=np.int64)

        # Rank position of every pick: a community's span start plus the
        # member drawn, or the global law's rank.  (Every query picks at
        # least once: a one-lookup query rounds to one community pick.)
        in_query = np.arange(picks.sum()) - (picks.cumsum() - picks).repeat(picks)
        from_community = in_query < within.repeat(picks)
        positions = np.empty(in_query.size, dtype=np.int64)
        if pending.community:
            community = invert_sorted(self._community_sampler, np.array(pending.community))
            spans = (community * COMMUNITY_SIZE).repeat(within[within > 0])
            positions[from_community] = spans + np.concatenate(pending.members)
        if pending.uniforms:
            positions[~from_community] = invert_sorted(
                self._rank_sampler, np.concatenate(pending.uniforms)
            )
        if any(pending.offsets):
            positions += np.array(pending.offsets, dtype=np.int64).repeat(picks)
            positions %= self.ranking.size
        sizes = np.array(pending.sizes, dtype=np.int64)
        return resolve_queries(positions, picks, sizes, self.ranking)


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


def _drift_trace(config: ScenarioConfig, rng: np.random.Generator) -> Trace:
    """Popularity drift: the Zipf ranking rotates at every epoch boundary."""
    law = _QueryLaw(config, rng)
    shift = int(round(config.drift_rotation_per_epoch * config.num_vectors))
    start = int(round(config.drift_start_fraction * config.num_queries))
    sizes = poisson_query_sizes(rng, config.avg_lookups_per_query, config.num_queries)
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
    sizes = poisson_query_sizes(rng, config.avg_lookups_per_query, config.num_queries)
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
