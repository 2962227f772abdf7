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

Each query focuses on one *community* — a contiguous :data:`COMMUNITY_SIZE`
span of the ranking, chosen by a Zipf law over community rank — and draws
:data:`QUERY_LOCALITY` of its lookups from it, the rest from a Zipf law over
the ranked ids.  Co-accessed ids thus share a rank span, which is the
block-level structure SHP discovers and a rotation takes away.

Every draw is a counter-based uniform (:mod:`repro.utils.sampling`): the
ranking is the stable argsort of one row over the ids, and query ``i``'s
size, community, picks and diversions are keyed by ``(i, slot)``, so a
trace is a pure function of its config.  A drift rotation is a per-query
offset into the ranking.  Queries resolve in passes of at most
:data:`~repro.utils.sampling.RESOLVE_DRAWS` picks; a flash-window pass then
diverts each distinct id onto the crowd with ``flash_traffic_share`` and
de-duplicates again.  Its oracle is the scalar loop in
``tests/test_scenario_synthesis.py``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.scenarios.config import COMMUNITY_SIZE, FLASH_START_FRACTION, ScenarioConfig
from repro.utils import sampling
from repro.utils.sampling import (
    InverseCDFSampler,
    counter_uniforms,
    first_occurrences,
    poisson_probabilities,
    ranks_within,
    resolve_queries,
    stream_keys,
    zipf_probabilities,
)
from repro.workloads.trace import Trace

#: Skew of the popularity law over the ranked ids (and over the community
#: ranking).
ZIPF_ALPHA = 0.9

#: Fraction of each query's lookups drawn from its focus community; the rest
#: are independent draws from the global popularity law.
QUERY_LOCALITY = 0.8

# The random streams of a scenario's seed (``stream_keys``).  A query's
# community picks take pick slots 0 .. within - 1, its global picks the rest.
_RANKING, _SIZE, _COMMUNITY, _PICK, _DIVERT, _CROWD = range(6)


def generate_scenario_trace(config: ScenarioConfig) -> Trace:
    """Generate the access trace of one scenario (deterministic in the seed)."""
    keys = stream_keys(config.seed, _CROWD + 1)
    n, index = config.num_vectors, np.arange(config.num_queries)
    ranking = counter_uniforms(keys[_RANKING], 0, np.arange(n)).argsort(kind="stable")
    size_law = InverseCDFSampler(poisson_probabilities(config.avg_lookups_per_query))
    sizes = np.maximum(size_law.invert(counter_uniforms(keys[_SIZE], index, 0)), 1)
    within = (sizes * QUERY_LOCALITY).round().astype(np.int64)
    rest = sizes - within
    # Over-draw the global picks slightly, then de-duplicate and truncate.
    draws = np.maximum(rest + 2, (rest * 1.2).round().astype(np.int64)) * (rest > 0)
    picks = within + draws
    community_law = InverseCDFSampler(zipf_probabilities(n // COMMUNITY_SIZE, ZIPF_ALPHA))
    spans = community_law.invert(counter_uniforms(keys[_COMMUNITY], index, 0)) * COMMUNITY_SIZE
    rank_law = InverseCDFSampler(zipf_probabilities(n, ZIPF_ALPHA))

    if config.kind == "drift":
        # The ranking rotates before query i when i > 0, i >= start and i
        # starts an epoch; a query's offset is the rotations so far times
        # the shift.
        shift = int(round(config.drift_rotation_per_epoch * n))
        start = int(round(config.drift_start_fraction * config.num_queries))
        rotates = (index > 0) & (index >= start) & (index % config.drift_epoch_queries == 0)
        offsets = rotates.cumsum() * shift % n
        flashing = np.zeros(index.size, dtype=bool)
    else:
        offsets = np.zeros(index.size, dtype=np.int64)
        start = int(round(FLASH_START_FRACTION * config.num_queries))
        end = start + int(round(config.flash_duration_fraction * config.num_queries))
        flashing = (index >= start) & (index < end) & (config.flash_traffic_share > 0)
    # The crowd converges on the coldest ids of the baseline law.
    crowd = ranking[n - config.flash_crowd_ids :]

    # A pass ends at the flash window's edges and once RESOLVE_DRAWS picks
    # are pending.
    pending = (picks.cumsum() - picks) // sampling.RESOLVE_DRAWS
    cuts = ((pending[1:] != pending[:-1]) | (flashing[1:] != flashing[:-1])).nonzero()[0]
    bounds = [0] + (cuts + 1).tolist() + [index.size]
    queries: List[np.ndarray] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # Rank position of every pick: its community span's start plus the
        # member drawn, or the global law's rank, shifted by the offset.
        query, slot = index[lo:hi].repeat(picks[lo:hi]), ranks_within(picks[lo:hi])
        uniforms = counter_uniforms(keys[_PICK], query, slot)
        positions = spans[query] + (uniforms * COMMUNITY_SIZE).astype(np.int64)
        drawn_globally = slot >= within[query]
        positions[drawn_globally] = rank_law.invert(uniforms[drawn_globally])
        positions = (positions + offsets[query]) % n
        resolved = resolve_queries(positions, picks[lo:hi], sizes[lo:hi], ranking)
        if flashing[lo]:
            resolved = _divert(resolved, index[lo:hi], crowd, config, keys)
        queries += resolved
    return Trace._trusted(queries, n)


def _divert(
    resolved: List[np.ndarray],
    index: np.ndarray,
    crowd: np.ndarray,
    config: ScenarioConfig,
    keys: List[int],
) -> List[np.ndarray]:
    """Flash-window queries with each distinct id diverted onto a uniform
    crowd id with ``flash_traffic_share``, then de-duplicated in draw order."""
    n = config.num_vectors
    lengths = np.fromiter(map(len, resolved), np.int64, len(resolved))
    ids = np.concatenate(resolved)
    query, slot = index.repeat(lengths), ranks_within(lengths)
    diverted = counter_uniforms(keys[_DIVERT], query, slot) < config.flash_traffic_share
    drawn = counter_uniforms(keys[_CROWD], query[diverted], slot[diverted]) * crowd.size
    ids[diverted] = crowd[drawn.astype(np.int64)]
    # A (query, id) key keeps each id's first occurrence within its query.
    kept = first_occurrences(query * n + ids)
    ends = np.bincount(kept // n - index[0], minlength=index.size).cumsum().tolist()
    ids = kept % n
    return [ids[start:stop] for start, stop in zip([0] + ends[:-1], ends)]
