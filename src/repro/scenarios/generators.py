"""Adversarial scenario trace generators.

Each generator produces a plain :class:`~repro.workloads.trace.Trace` over a
dense id universe, so scenarios compose with everything downstream —
:meth:`BandanaStore.build <repro.core.bandana.BandanaStore.build>`, the
windowed replay of :func:`repro.scenarios.runner.run_workload_scenario` and
the event-driven :func:`repro.serving.simulate_serving`.

The three kinds stress the three assumptions Bandana's offline pipeline
bakes in at build time:

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
* **diurnal** attacks nothing in the id law at all — the stationary trace is
  the control — but drives the *arrival rate* through the two-state MMPP
  process (:func:`scenario_serving_config`), with long dwells acting as day
  and night phases.  It answers how a device provisioned for the mean copes
  with the daily peak.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np

from repro.core.config import ServingConfig
from repro.scenarios.config import ScenarioConfig
from repro.utils.rng import ensure_rng
from repro.utils.sampling import (
    InverseCDFSampler,
    first_occurrences,
    zipf_probabilities,
)
from repro.workloads.trace import Trace


def _query_sizes(config: ScenarioConfig, rng: np.random.Generator) -> List[int]:
    """Poisson query sizes, at least one lookup each."""
    sizes = rng.poisson(lam=config.avg_lookups_per_query, size=config.num_queries)
    return np.maximum(sizes, 1).tolist()


class _QueryLaw:
    """The per-query sampling law over one (rotatable) popularity ranking.

    Each query focuses on one *community* — a contiguous ``community_size``
    span of the ranking, chosen by a Zipf law over community rank — and
    draws ``query_locality`` of its lookups from that community, the rest
    from a global Zipf law over the ranked ids.  Communities are what give
    SHP block-level structure to discover: co-accessed ids live in the same
    rank span, so a good placement packs them into the same 4 KB blocks.
    Rotating the ranking (drift) migrates every community's membership,
    which is precisely the structure a stale placement loses.

    Both Zipf laws are over *ranks*, which rotation does not touch, so each
    is tabulated once per trace (:class:`~repro.utils.sampling.InverseCDFSampler`).
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.ranking = rng.permutation(config.num_vectors).astype(np.int64)
        self._rank_sampler = InverseCDFSampler(
            zipf_probabilities(config.num_vectors, config.zipf_alpha)
        )
        num_communities = max(1, config.num_vectors // config.community_size)
        self._community_sampler = InverseCDFSampler(
            zipf_probabilities(num_communities, config.zipf_alpha)
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
        config, rng = self.config, self.rng
        within = int(round(size * config.query_locality))
        parts: List[np.ndarray] = []
        if within:
            lo = int(self._community_sampler.draw(rng)) * config.community_size
            members = self.ranking[lo : lo + config.community_size]
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
    start = int(round(config.flash_start_fraction * config.num_queries))
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


def _diurnal_trace(config: ScenarioConfig, rng: np.random.Generator) -> Trace:
    """Diurnal load: a stationary id law — the day/night curve lives in the
    arrival process (:func:`scenario_serving_config`), not the ids."""
    law = _QueryLaw(config, rng)
    queries = [law.draw_query(size) for size in _query_sizes(config, rng)]
    return Trace._trusted(queries, config.num_vectors)


def generate_scenario_trace(config: ScenarioConfig) -> Trace:
    """Generate the access trace of one scenario (deterministic in the seed)."""
    rng = ensure_rng(config.seed)
    if config.kind == "drift":
        return _drift_trace(config, rng)
    if config.kind == "flash-crowd":
        return _flash_crowd_trace(config, rng)
    return _diurnal_trace(config, rng)


def scenario_serving_config(
    config: ScenarioConfig, base: ServingConfig = ServingConfig()
) -> ServingConfig:
    """The serving front-end configuration a scenario implies.

    For ``"diurnal"`` scenarios this turns the base config's arrival process
    into the two-state MMPP with day/night dwells: the bursty state is the
    day (rate ``diurnal_burst_factor ×`` the night's), occupying
    ``diurnal_day_fraction`` of the time, with mean day length
    ``diurnal_period_s`` — the stationary mean rate stays the base config's
    ``arrival_rate_rps``, so diurnal and flat runs offer the same average
    load.  Other kinds return ``base`` unchanged (their adversarial content
    is in the ids, not the arrivals).
    """
    if config.kind != "diurnal":
        return base
    return replace(
        base,
        arrival_process="mmpp",
        mmpp_burst_factor=config.diurnal_burst_factor,
        mmpp_burst_fraction=config.diurnal_day_fraction,
        mmpp_mean_dwell_s=config.diurnal_period_s,
    )
