"""Scenario synthesis equals its scalar oracle, and keeps the scenario law.

``repro.scenarios.generators`` draws every value as a counter-based uniform
keyed by (seed, stream, query, slot) and resolves queries in array passes.
The oracle below draws query ``i`` alone, one scalar at a time, over a
pure-Python splitmix64 (``tests.conftest.scalar_uniform``): its laws searched
per draw, its picks mapped through a ranking rolled once per drift epoch,
de-duplicated in draw order, and in the flash window diverted slot by slot.
``TestScenarioLaw`` checks the law itself, statistically, so a change to the
draws that keeps the oracle in step cannot move it unseen.
"""

import dataclasses
from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ScenarioConfig, generate_scenario_trace
from repro.scenarios import generators
from repro.scenarios.config import COMMUNITY_SIZE, FLASH_START_FRACTION, SCENARIO_KINDS
from repro.scenarios.generators import (
    _COMMUNITY,
    _CROWD,
    _DIVERT,
    _PICK,
    _RANKING,
    _SIZE,
    QUERY_LOCALITY,
    ZIPF_ALPHA,
)
from repro.utils import sampling
from repro.utils.sampling import (
    InverseCDFSampler,
    poisson_probabilities,
    stream_keys,
    zipf_probabilities,
)
from tests.conftest import scalar_uniform


# ------------------------------------------------------------ scalar oracle
def oracle_ranking(config: ScenarioConfig) -> List[int]:
    """The ids sorted (stably) by their ranking uniforms."""
    key = stream_keys(config.seed, _CROWD + 1)[_RANKING]
    return sorted(range(config.num_vectors), key=lambda v: scalar_uniform(key, 0, v))


def oracle_sizes(config: ScenarioConfig) -> np.ndarray:
    """Every query's drawn size, before de-duplication."""
    key = stream_keys(config.seed, _CROWD + 1)[_SIZE]
    law = InverseCDFSampler(poisson_probabilities(config.avg_lookups_per_query))
    return np.array(
        [max(1, int(law.invert(scalar_uniform(key, i, 0)))) for i in range(config.num_queries)]
    )


def oracle_offsets(config: ScenarioConfig) -> List[int]:
    """Every query's ranking offset: the ranking rolled once per epoch
    boundary passed at or after the drift start (0 for a flash crowd)."""
    n = config.num_vectors
    shift = round(config.drift_rotation_per_epoch * n)
    start = round(config.drift_start_fraction * config.num_queries)
    offsets, offset = [], 0
    for i in range(config.num_queries):
        if config.kind == "drift" and i and i >= start and i % config.drift_epoch_queries == 0:
            offset = (offset + shift) % n
        offsets.append(offset)
    return offsets


def oracle_queries(config: ScenarioConfig, picked: Sequence[int]) -> Dict[int, List[int]]:
    """Queries ``picked`` of ``config``'s trace, each drawn alone.

    A query's size; its community's span; its community members
    (``⌊u·COMMUNITY_SIZE⌋``) then its global picks, one pick slot each; the
    ids at those ranks of the rolled ranking, first occurrences kept and cut
    to the size; in the flash window, each distinct id diverted onto a crowd
    id with the traffic share, then de-duplicated again.
    """
    keys = stream_keys(config.seed, _CROWD + 1)
    n = config.num_vectors
    ranking = oracle_ranking(config)
    sizes, offsets = oracle_sizes(config), oracle_offsets(config)
    community_law = InverseCDFSampler(zipf_probabilities(n // COMMUNITY_SIZE, ZIPF_ALPHA))
    rank_law = InverseCDFSampler(zipf_probabilities(n, ZIPF_ALPHA))
    start = round(FLASH_START_FRACTION * config.num_queries)
    end = start + round(config.flash_duration_fraction * config.num_queries)
    crowd = ranking[n - config.flash_crowd_ids :]
    queries = {}
    for i in picked:
        size = int(sizes[i])
        within = round(size * QUERY_LOCALITY)
        rest = size - within
        draw = max(rest + 2, round(rest * 1.2)) if rest else 0
        span = int(community_law.invert(scalar_uniform(keys[_COMMUNITY], i, 0))) * COMMUNITY_SIZE
        uniforms = [scalar_uniform(keys[_PICK], i, slot) for slot in range(within + draw)]
        positions = [span + int(u * COMMUNITY_SIZE) for u in uniforms[:within]]
        positions += [int(rank_law.invert(u)) for u in uniforms[within:]]
        ids = [ranking[(p + offsets[i]) % n] for p in positions]
        ids = list(dict.fromkeys(ids))[:size]
        if config.kind == "flash-crowd" and start <= i < end:
            for slot in range(len(ids)):
                if scalar_uniform(keys[_DIVERT], i, slot) < config.flash_traffic_share:
                    ids[slot] = crowd[int(scalar_uniform(keys[_CROWD], i, slot) * len(crowd))]
            ids = list(dict.fromkeys(ids))
        queries[i] = ids
    return queries


def assert_matches_oracle(config: ScenarioConfig, trace, picked: Sequence[int]) -> None:
    for i, expected in oracle_queries(config, picked).items():
        assert trace.queries[i].tolist() == expected, i
        assert trace.queries[i].dtype == np.int64


def record_resolve_passes(monkeypatch) -> List[int]:
    """Patch the generators' ``resolve_queries`` to record each pass's query count."""
    batch_sizes: List[int] = []
    resolve = sampling.resolve_queries

    def recording(positions, picks, sizes, ids):
        batch_sizes.append(picks.size)
        return resolve(positions, picks, sizes, ids)

    monkeypatch.setattr(generators, "resolve_queries", recording)
    return batch_sizes


def fraction(edges=(0.0, 1.0)):
    return st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))


@st.composite
def scenario_configs(draw):
    """Either kind over 64-2048 vectors (not only multiples of COMMUNITY_SIZE)."""
    num_vectors = draw(
        st.one_of(st.sampled_from([64, 65, 127, 130, 2048]), st.integers(64, 2048))
    )
    return ScenarioConfig(
        kind=draw(st.sampled_from(SCENARIO_KINDS)),
        num_queries=draw(st.integers(1, 400)),
        avg_lookups_per_query=draw(st.floats(0.5, 90.0)),
        num_vectors=num_vectors,
        drift_rotation_per_epoch=draw(fraction()),
        drift_epoch_queries=draw(st.integers(1, 60)),
        drift_start_fraction=draw(fraction((0.0, 0.5, 1.0))),
        flash_duration_fraction=draw(
            st.floats(0.0, 1.0 - FLASH_START_FRACTION) | st.just(1.0 - FLASH_START_FRACTION)
        ),
        flash_crowd_ids=draw(st.sampled_from([1, 2, 64]) | st.integers(1, num_vectors)),
        flash_traffic_share=draw(fraction()),
        seed=draw(st.integers(0, 2**32)),
    )


class TestSynthesisMatchesScalarOracle:
    """Query i is a pure function of (config, i): each equals the scalar
    oracle's query i, however the queries are cut into resolve passes."""

    @given(config=scenario_configs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_queries_match_the_oracle(self, config, data):
        trace = generate_scenario_trace(config)
        assert len(trace) == config.num_queries
        last = config.num_queries - 1
        picked = data.draw(st.lists(st.integers(0, last), min_size=1, max_size=8), label="i")
        assert_matches_oracle(config, trace, picked + [last])

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_batches_cross_the_cap_mid_epoch(self, monkeypatch, kind):
        # ~94 picks a query: a pass closes every ~87 queries, between the
        # epoch boundaries at multiples of 60, so one pass spans a rotation.
        config = ScenarioConfig(
            kind=kind,
            num_queries=400,
            avg_lookups_per_query=90.0,
            num_vectors=2048,
            drift_epoch_queries=60,
            seed=3,
        )
        batch_sizes = record_resolve_passes(monkeypatch)
        trace = generate_scenario_trace(config)
        closed = np.cumsum(batch_sizes)[:-1]
        assert closed.size >= 2
        if kind == "drift":
            assert (closed % config.drift_epoch_queries != 0).all()
        picked = sorted({0, 59, 60, 61, 199, 200, 201, 279, 280, 399, *closed.tolist()})
        assert_matches_oracle(config, trace, [i for i in picked if i < len(trace)])

    @pytest.mark.parametrize("limit", [1, 60, 500])
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_batches_resolved_in_pieces(self, monkeypatch, kind, limit):
        batch_sizes = record_resolve_passes(monkeypatch)
        config = ScenarioConfig(
            kind=kind, num_queries=150, num_vectors=130, drift_epoch_queries=7, seed=1
        )
        whole = generate_scenario_trace(config)
        uncapped = len(batch_sizes)
        batch_sizes.clear()
        monkeypatch.setattr(sampling, "RESOLVE_DRAWS", limit)
        pieces = generate_scenario_trace(config)
        # The lower cap cuts the same queries into more resolve passes.
        assert len(batch_sizes) > uncapped
        assert pieces == whole
        assert_matches_oracle(config, pieces, range(config.num_queries))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(drift_epoch_queries=1, drift_rotation_per_epoch=0.0),
            dict(drift_epoch_queries=1, drift_rotation_per_epoch=1.0),
            dict(num_vectors=64, avg_lookups_per_query=3.0),
            dict(num_vectors=130, avg_lookups_per_query=90.0),
            dict(drift_start_fraction=0.5),
            dict(flash_traffic_share=0.0),
            dict(flash_traffic_share=1.0, flash_crowd_ids=1),
        ],
    )
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_edge_configs(self, kind, overrides):
        for seed in range(4):
            config = ScenarioConfig(kind=kind, num_queries=240, seed=seed, **overrides)
            trace = generate_scenario_trace(config)
            assert_matches_oracle(config, trace, range(config.num_queries))


# ------------------------------------------------------------------ the law
#: Mean share of a query's distinct ids inside one ``COMMUNITY_SIZE`` rank
#: span, and its standard error, per kind: seeds 1-3 of :func:`law_config`
#: pooled, measured on the per-query NumPy ``Generator`` synthesis the
#: counter-keyed draws replaced.
COMMUNITY_SHARE = {"drift": (0.7492, 0.00073), "flash-crowd": (0.73507, 0.00094)}

LAW_SEEDS = (1, 2, 3)


def law_config(kind, seed, **overrides):
    """The default scenario: 2 000 queries of ~24 lookups over 4 096 vectors."""
    return ScenarioConfig(kind=kind, seed=seed, **overrides)


def ratio_and_error(numerators, denominators):
    """The ratio estimate sum(num) / sum(den) and its delta-method standard error."""
    numerators = np.asarray(numerators, dtype=np.float64)
    denominators = np.asarray(denominators, dtype=np.float64)
    ratio = numerators.sum() / denominators.sum()
    residuals = numerators - ratio * denominators
    return ratio, float(np.sqrt((residuals**2).sum()) / denominators.sum())


def rank_of(config):
    """Each id's place in the unrotated ranking."""
    ranks = np.empty(config.num_vectors, dtype=np.int64)
    ranks[oracle_ranking(config)] = np.arange(config.num_vectors)
    return ranks


def community_shares(config, trace):
    """Per query: the largest share of its ids inside one community span of
    the ranking it was drawn from (drift's rotation undone)."""
    ranks, n = rank_of(config), config.num_vectors
    return np.array([
        np.bincount((ranks[query] - offset) % n // COMMUNITY_SIZE).max() / query.size
        for query, offset in zip(trace.queries, oracle_offsets(config))
    ])


def crowd_counts(queries, crowd):
    """(crowd ids, ids) of each query."""
    return (
        np.array([np.isin(query, crowd).sum() for query in queries]),
        np.array([query.size for query in queries]),
    )


def divert_by_the_law(queries, crowd, share, rng):
    """Each query's ids diverted with ``share`` onto uniform crowd ids, then
    de-duplicated (order aside): a Monte-Carlo draw of the flash law."""
    diverted = []
    for query in queries:
        ids = query.copy()
        mask = rng.random(ids.size) < share
        ids[mask] = crowd[rng.integers(crowd.size, size=int(mask.sum()))]
        diverted.append(np.unique(ids))
    return diverted


class TestScenarioLaw:
    """Both kinds keep the scenario law at seeds 1-3: the drawn sizes'
    floored-Poisson mean, the community concentration, drift's rotation and
    the flash crowd's diverted share (each within four standard errors).
    The same checks pass on the per-query ``Generator`` synthesis that the
    counter-keyed draws replaced, so they show the law did not move while
    the bits did."""

    @pytest.mark.parametrize("seed", LAW_SEEDS)
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_sizes_and_communities_keep_the_law(self, kind, seed):
        config = law_config(kind, seed)
        sizes = oracle_sizes(config)
        law = poisson_probabilities(config.avg_lookups_per_query)
        support = np.maximum(np.arange(law.size), 1)
        mean = float(law @ support)
        error = float(np.sqrt(law @ (support - mean) ** 2)) / np.sqrt(sizes.size)
        assert abs(sizes.mean() - mean) < 4 * error

        shares = community_shares(config, generate_scenario_trace(config))
        error = shares.std() / np.sqrt(shares.size)
        expected, expected_error = COMMUNITY_SHARE[kind]
        assert abs(shares.mean() - expected) < 4 * np.hypot(error, expected_error)

    @pytest.mark.parametrize("seed", LAW_SEEDS)
    def test_drift_moves_the_hot_set_by_the_rotation(self, seed):
        config = law_config("drift", seed)
        shift = round(config.drift_rotation_per_epoch * config.num_vectors)
        n, epoch = config.num_vectors, config.drift_epoch_queries
        ranks = rank_of(config)
        queries = generate_scenario_trace(config).queries
        # Each epoch's accesses over the unrotated ranking; the circular
        # cross-correlation with the epoch before peaks at the shift.
        spectra = [
            np.fft.rfft(np.bincount(ranks[np.concatenate(queries[at : at + epoch])], minlength=n))
            for at in range(0, config.num_queries, epoch)
        ]
        assert len(spectra) == 8
        for before, after in zip(spectra[:-1], spectra[1:]):
            assert int(np.fft.irfft(before.conj() * after, n).argmax()) == shift

    @pytest.mark.parametrize("seed", LAW_SEEDS)
    def test_flash_window_diverts_the_share(self, seed):
        config = law_config("flash-crowd", seed)
        start = round(FLASH_START_FRACTION * config.num_queries)
        end = start + round(config.flash_duration_fraction * config.num_queries)
        crowd = np.array(oracle_ranking(config)[-config.flash_crowd_ids :])
        flash = generate_scenario_trace(config).queries
        control = generate_scenario_trace(
            dataclasses.replace(config, flash_traffic_share=0.0)
        ).queries

        # In the window: the crowd's share of the lookups, against the share
        # the law gives the undiverted queries (a Monte-Carlo expectation).
        share, error = ratio_and_error(*crowd_counts(flash[start:end], crowd))
        rng = np.random.default_rng(seed)
        replicates = [
            ratio_and_error(*crowd_counts(
                divert_by_the_law(control[start:end], crowd, config.flash_traffic_share, rng),
                crowd,
            ))
            for _ in range(8)
        ]
        expected = np.mean([value for value, _ in replicates])
        assert abs(share - expected) < 4 * np.hypot(error, replicates[0][1])

        # Outside it: no more crowd traffic than the undiverted control has.
        share, error = ratio_and_error(*crowd_counts(flash[:start] + flash[end:], crowd))
        baseline, baseline_error = ratio_and_error(
            *crowd_counts(control[:start] + control[end:], crowd)
        )
        assert share - baseline < 4 * np.hypot(error, baseline_error)
