"""Scenario synthesis equals the per-query loop it replaced.

``repro.scenarios.generators`` draws each query's random numbers in a Python
loop and resolves pending queries to ids in one NumPy pass per batch.  The
per-query loop below (each query's laws searched, its picks mapped to ids and
de-duplicated on their own, the ranking rolled at every drift epoch) is the
oracle: fed the same seeded ``Generator``, both must return the same trace and
leave the generator in the same state.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ScenarioConfig
from repro.scenarios.config import COMMUNITY_SIZE, FLASH_START_FRACTION, SCENARIO_KINDS
from repro.scenarios.generators import (
    QUERY_LOCALITY,
    _drift_trace,
    _flash_crowd_trace,
    _QueryLaw,
)
from repro.utils import sampling
from repro.utils.sampling import first_occurrences, poisson_query_sizes
from repro.workloads.trace import Trace


class _ReferenceQueryLaw(_QueryLaw):
    """The same laws, drawn and resolved one query at a time."""

    def rotate(self, shift: int) -> None:
        self.ranking = np.roll(self.ranking, -shift)

    def coldest_ids(self, count: int) -> np.ndarray:
        return self.ranking[-count:]

    def draw_query(self, size: int) -> np.ndarray:
        rng = self.rng
        within = int(round(size * QUERY_LOCALITY))
        parts: List[np.ndarray] = []
        if within:
            lo = int(self._community_sampler.invert(rng.random())) * COMMUNITY_SIZE
            members = self.ranking[lo : lo + COMMUNITY_SIZE]
            parts.append(members[rng.integers(members.size, size=within)])
        rest = size - within
        if rest:
            draw = max(rest + 2, int(round(rest * 1.2)))
            parts.append(self.ranking[self._rank_sampler.invert(rng.random(draw))])
        return first_occurrences(np.concatenate(parts))[:size]


def _reference_drift_trace(config: ScenarioConfig, rng: np.random.Generator) -> Trace:
    law = _ReferenceQueryLaw(config, rng)
    shift = int(round(config.drift_rotation_per_epoch * config.num_vectors))
    start = int(round(config.drift_start_fraction * config.num_queries))
    queries = []
    sizes = poisson_query_sizes(rng, config.avg_lookups_per_query, config.num_queries)
    for index, size in enumerate(sizes):
        if index and index >= start and index % config.drift_epoch_queries == 0 and shift:
            law.rotate(shift)
        queries.append(law.draw_query(size))
    return Trace(queries, config.num_vectors)


def _reference_flash_crowd_trace(config: ScenarioConfig, rng: np.random.Generator) -> Trace:
    law = _ReferenceQueryLaw(config, rng)
    crowd = law.coldest_ids(config.flash_crowd_ids)
    start = int(round(FLASH_START_FRACTION * config.num_queries))
    end = start + int(round(config.flash_duration_fraction * config.num_queries))
    queries = []
    sizes = poisson_query_sizes(rng, config.avg_lookups_per_query, config.num_queries)
    for index, size in enumerate(sizes):
        ids = law.draw_query(size)
        if start <= index < end and config.flash_traffic_share > 0:
            diverted = rng.random(ids.size) < config.flash_traffic_share
            if diverted.any():
                replacements = crowd[rng.integers(crowd.size, size=int(diverted.sum()))]
                ids = ids.copy()
                ids[diverted] = replacements
                ids = first_occurrences(ids)
        queries.append(ids)
    return Trace(queries, config.num_vectors)


def test_community_size_is_a_float32_power_of_two():
    # The generator draws community members as float32 uniforms scaled by
    # COMMUNITY_SIZE, which is integers(COMMUNITY_SIZE, size=k) only for a
    # power of two no larger than 2**24.
    assert 2 <= COMMUNITY_SIZE <= 2**24
    assert COMMUNITY_SIZE & (COMMUNITY_SIZE - 1) == 0


NEW = {"drift": _drift_trace, "flash-crowd": _flash_crowd_trace}
REFERENCE = {"drift": _reference_drift_trace, "flash-crowd": _reference_flash_crowd_trace}


def assert_matches_reference(config: ScenarioConfig, seed: int) -> Trace:
    """Both generators on equally seeded streams: same trace, same final state."""
    new_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    trace = NEW[config.kind](config, new_rng)
    assert trace == REFERENCE[config.kind](config, reference_rng)
    assert all(query.dtype == np.int64 for query in trace.queries)
    assert new_rng.bit_generator.state == reference_rng.bit_generator.state
    return trace


def record_resolve_passes(monkeypatch) -> List[int]:
    """Patch ``_QueryLaw._resolve`` to record each pass's query count."""
    batch_sizes: List[int] = []
    resolve = _QueryLaw._resolve

    def recording(law, pending):
        batch_sizes.append(len(pending.sizes))
        return resolve(law, pending)

    monkeypatch.setattr(_QueryLaw, "_resolve", recording)
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
        # Power-of-two crowds draw their diversions as float32 uniforms.
        flash_crowd_ids=draw(st.sampled_from([1, 2, 64]) | st.integers(1, num_vectors)),
        flash_traffic_share=draw(fraction()),
    )


class TestSynthesisMatchesPerQueryReference:
    @given(config=scenario_configs(), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_same_trace_and_same_stream(self, config, seed):
        assert_matches_reference(config, seed)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_batches_cross_the_cap_mid_epoch(self, monkeypatch, kind):
        # ~94 picks a query: a batch closes every ~87 queries, between the
        # epoch boundaries at multiples of 60, so one batch spans a rotation.
        config = ScenarioConfig(
            kind=kind,
            num_queries=400,
            avg_lookups_per_query=90.0,
            num_vectors=2048,
            drift_epoch_queries=60,
        )
        batch_sizes = record_resolve_passes(monkeypatch)
        assert_matches_reference(config, seed=3)
        closed = np.cumsum(batch_sizes)[:-1]
        assert closed.size >= 2
        if kind == "drift":
            assert (closed % config.drift_epoch_queries != 0).all()

    @pytest.mark.parametrize("limit", [1, 60, 500])
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_batches_resolved_in_pieces(self, monkeypatch, kind, limit):
        batch_sizes = record_resolve_passes(monkeypatch)
        config = ScenarioConfig(
            kind=kind, num_queries=150, num_vectors=130, drift_epoch_queries=7, seed=1
        )
        assert_matches_reference(config, seed=5)
        uncapped = len(batch_sizes)
        batch_sizes.clear()
        monkeypatch.setattr(sampling, "RESOLVE_DRAWS", limit)
        assert_matches_reference(config, seed=5)
        # The lower cap cuts the same queries into more resolve passes.
        assert len(batch_sizes) > uncapped

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
        config = ScenarioConfig(kind=kind, num_queries=240, **overrides)
        for seed in range(4):
            assert_matches_reference(config, seed)
