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
"""

from __future__ import annotations

from typing import List

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

    def rotate(self, shift: int) -> None:
        """Rotate: every id climbs ``shift`` ranks, the hottest ids wrap to
        the cold end — previously-cold ids steadily become hot."""
        self.ranking = np.roll(self.ranking, -shift)

    def coldest_ids(self, count: int) -> np.ndarray:
        """The ``count`` least-popular ids of the current ranking."""
        return self.ranking[-count:]

    def draw_query(self, size: int) -> np.ndarray:
        """One query: community-focused plus global Zipf draws, de-duplicated
        in draw order (a request reads each id at most once)."""
        rng = self.rng
        within = int(round(size * QUERY_LOCALITY))
        parts: List[np.ndarray] = []
        if within:
            lo = int(self._community_sampler.draw(rng)) * COMMUNITY_SIZE
            members = self.ranking[lo : lo + COMMUNITY_SIZE]
            parts.append(members[rng.integers(members.size, size=within)])
        rest = size - within
        if rest:
            draw = max(rest + 2, int(round(rest * 1.2)))
            parts.append(self.ranking[self._rank_sampler.draw(rng, draw)])
        return first_occurrences(np.concatenate(parts))[:size]


def _drift_trace(config: ScenarioConfig, rng: np.random.Generator) -> Trace:
    """Popularity drift: the Zipf ranking rotates at every epoch boundary."""
    law = _QueryLaw(config, rng)
    shift = int(round(config.drift_rotation_per_epoch * config.num_vectors))
    start = int(round(config.drift_start_fraction * config.num_queries))
    queries: List[np.ndarray] = []
    for index, size in enumerate(_query_sizes(config, rng)):
        if index and index >= start and index % config.drift_epoch_queries == 0 and shift:
            law.rotate(shift)
        queries.append(law.draw_query(size))
    return Trace._trusted(queries, config.num_vectors)


def _flash_crowd_trace(config: ScenarioConfig, rng: np.random.Generator) -> Trace:
    """A sudden spike concentrating traffic on previously-cold ids."""
    law = _QueryLaw(config, rng)
    # The crowd converges on the coldest ids of the baseline law.
    crowd = law.coldest_ids(config.flash_crowd_ids)
    start = int(round(FLASH_START_FRACTION * config.num_queries))
    end = start + int(round(config.flash_duration_fraction * config.num_queries))
    queries: List[np.ndarray] = []
    for index, size in enumerate(_query_sizes(config, rng)):
        ids = law.draw_query(size)
        if start <= index < end and config.flash_traffic_share > 0:
            diverted = rng.random(ids.size) < config.flash_traffic_share
            if diverted.any():
                replacements = crowd[
                    rng.integers(crowd.size, size=int(diverted.sum()))
                ]
                ids = ids.copy()
                ids[diverted] = replacements
                # Re-de-duplicate after the diversion (keep first occurrences).
                ids = first_occurrences(ids)
        queries.append(ids)
    return Trace._trusted(queries, config.num_vectors)


def generate_scenario_trace(config: ScenarioConfig) -> Trace:
    """Generate the access trace of one scenario (deterministic in the seed)."""
    rng = ensure_rng(config.seed)
    if config.kind == "drift":
        return _drift_trace(config, rng)
    return _flash_crowd_trace(config, rng)
