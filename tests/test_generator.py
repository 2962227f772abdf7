"""Tests for the synthetic workload generator."""

import os
import sys

if __package__ in (None, ""):  # direct script run (golden regeneration)
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import sampling
from repro.utils.sampling import first_occurrences
from repro.workloads import (
    SyntheticTraceGenerator,
    generate_model_trace,
    paper_shaped_lookups,
    scaled_table_specs,
)
from repro.workloads.tables_spec import TableSpec
from repro.workloads.generator import (
    BURSTINESS,
    TOPIC_AFFINITY,
    TOPICS_PER_QUERY,
    UNIQUE_PER_BLOCK,
)
from repro.workloads.trace import Trace
from tests.conftest import make_spec, trace_digest


class TestPaperShapedLookups:
    def test_density_formula(self):
        spec = make_spec(num_vectors=3200, compulsory=0.1)
        lookups = paper_shaped_lookups(spec, vectors_per_block=32)
        assert lookups == round(UNIQUE_PER_BLOCK * 100 / 0.1)


class TestGeneratorStructure:
    def test_reproducible_given_seed(self):
        spec = make_spec(num_vectors=2048)
        a = SyntheticTraceGenerator(spec, seed=5, expected_lookups=3000).generate(40)
        b = SyntheticTraceGenerator(spec, seed=5, expected_lookups=3000).generate(40)
        assert a == b

    def test_different_seeds_differ(self):
        spec = make_spec(num_vectors=2048)
        a = SyntheticTraceGenerator(spec, seed=1, expected_lookups=3000).generate(40)
        b = SyntheticTraceGenerator(spec, seed=2, expected_lookups=3000).generate(40)
        assert a != b

    def test_ids_within_table(self, generator, eval_trace, small_spec):
        flat = eval_trace.flatten()
        assert flat.min() >= 0
        assert flat.max() < small_spec.num_vectors

    def test_traffic_stays_in_active_set(self, generator, eval_trace):
        active = set(generator.active_ids.tolist())
        assert set(eval_trace.unique_vectors().tolist()) <= active

    def test_topic_of_covers_every_vector(self, generator, small_spec):
        topics = generator.topic_of()
        assert topics.shape == (small_spec.num_vectors,)
        assert topics.min() >= 0
        assert topics.max() < generator.num_topics

    def test_queries_have_distinct_ids(self, eval_trace):
        for query in eval_trace.queries[:100]:
            assert len(np.unique(query)) == len(query)


class TestQueryCountValidation:
    """``generate`` names a bad count itself instead of dying inside numpy."""

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "4", None])
    def test_non_integer_counts_raise_type_error(self, bad):
        generator = SyntheticTraceGenerator(make_spec(num_vectors=2048), seed=5)
        with pytest.raises(TypeError, match="num_queries must be an integer >= 1"):
            generator.generate(bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_counts_below_one_raise_value_error(self, bad):
        generator = SyntheticTraceGenerator(make_spec(num_vectors=2048), seed=5)
        with pytest.raises(ValueError, match="num_queries must be >= 1"):
            generator.generate(bad)

    def test_rejected_call_consumes_no_random_state(self):
        spec = make_spec(num_vectors=2048)
        rejected = SyntheticTraceGenerator(spec, seed=5, expected_lookups=3000)
        for bad in (2.5, True, 0):
            with pytest.raises((TypeError, ValueError)):
                rejected.generate(bad)
        fresh = SyntheticTraceGenerator(spec, seed=5, expected_lookups=3000)
        assert rejected.generate(np.int64(30)) == fresh.generate(30)

    def test_generate_lookups_derives_a_valid_count(self):
        generator = SyntheticTraceGenerator(make_spec(num_vectors=2048), seed=5)
        # Fewer lookups than one query holds still yields one query.
        assert len(generator.generate_lookups(1)) == 1
        for bad in (0, -1):
            with pytest.raises(ValueError, match="num_lookups"):
                generator.generate_lookups(bad)


class TestArgumentValidation:
    """Counts and seeds are exact: a float, string or bool is a caller's bug.

    Each of these used to be coerced silently — ``seed=2.7`` ran as seed 2,
    ``expected_lookups=100.9`` as 100, ``generate_lookups(True)`` made one
    query and ``generate_model_trace(..., seed=1.5)`` was the seed-1 trace.
    """

    @pytest.mark.parametrize(
        "kwargs, error, name",
        [
            ({"seed": 2.7}, TypeError, "seed"),
            ({"seed": "3"}, TypeError, "seed"),
            ({"seed": True}, TypeError, "seed"),
            ({"seed": None}, TypeError, "seed"),
            ({"seed": -1}, ValueError, "seed"),
            ({"expected_lookups": 100.9}, TypeError, "expected_lookups"),
            ({"expected_lookups": 100.0}, TypeError, "expected_lookups"),
            ({"expected_lookups": True}, TypeError, "expected_lookups"),
            ({"expected_lookups": 0}, ValueError, "expected_lookups"),
        ],
    )
    def test_constructor_rejects(self, kwargs, error, name):
        with pytest.raises(error, match=name):
            SyntheticTraceGenerator(make_spec(num_vectors=2048), **kwargs)

    def test_constructor_accepts_numpy_integers(self):
        spec = make_spec(num_vectors=2048)
        a = SyntheticTraceGenerator(spec, seed=np.int64(5), expected_lookups=np.int32(900))
        b = SyntheticTraceGenerator(spec, seed=5, expected_lookups=900)
        assert a.generate(20) == b.generate(20)

    @pytest.mark.parametrize(
        "per_block, error", [(32.5, TypeError), (True, TypeError), (0, ValueError)]
    )
    def test_paper_shaped_lookups_rejects_vectors_per_block(self, per_block, error):
        with pytest.raises(error, match="vectors_per_block"):
            paper_shaped_lookups(make_spec(), per_block)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (True, TypeError),
            (2.5, TypeError),
            (60.0, TypeError),
            (float("nan"), TypeError),
            ("60", TypeError),
        ],
    )
    def test_generate_lookups_rejects(self, bad, error):
        generator = SyntheticTraceGenerator(make_spec(num_vectors=2048), seed=5)
        with pytest.raises(error, match="num_lookups"):
            generator.generate_lookups(bad)

    @pytest.mark.parametrize(
        "seed, error", [(1.5, TypeError), (True, TypeError), (-2, ValueError)]
    )
    def test_generate_model_trace_rejects_seed(self, seed, error):
        specs = scaled_table_specs(1 / 2000, names=["table1"])
        with pytest.raises(error, match="seed"):
            generate_model_trace(specs, total_lookups=100, seed=seed)


class TestGeneratorCalibration:
    def test_avg_query_size_close_to_spec(self, eval_trace, small_spec):
        assert (
            0.6 * small_spec.avg_lookups_per_query
            < eval_trace.avg_lookups_per_query
            <= 1.3 * small_spec.avg_lookups_per_query
        )

    def test_compulsory_miss_rate_in_band(self, small_spec):
        generator = SyntheticTraceGenerator(small_spec, seed=11, expected_lookups=6000)
        trace = generator.generate_lookups(6000)
        measured = trace.unique_vectors().size / trace.num_lookups
        # The calibration targets the spec value; accept a generous band since
        # query-level clustering inflates it somewhat.
        assert 0.5 * small_spec.compulsory_miss_rate < measured < 3.5 * small_spec.compulsory_miss_rate

    def test_skewed_table_more_cacheable_than_uniform(self):
        skewed = make_spec(name="skewed", compulsory=0.05, alpha=1.1)
        uniform = make_spec(name="uniform", compulsory=0.6, alpha=0.4)
        t_skewed = SyntheticTraceGenerator(skewed, seed=3, expected_lookups=4000).generate_lookups(4000)
        t_uniform = SyntheticTraceGenerator(uniform, seed=3, expected_lookups=4000).generate_lookups(4000)
        rate_skewed = t_skewed.unique_vectors().size / t_skewed.num_lookups
        rate_uniform = t_uniform.unique_vectors().size / t_uniform.num_lookups
        assert rate_skewed < rate_uniform


class TestModelTraceGeneration:
    def test_share_split_matches_table1(self):
        specs = scaled_table_specs(1 / 2000, names=["table1", "table2", "table8"])
        model = generate_model_trace(specs, total_lookups=20000, seed=0)
        shares = model.lookup_shares()
        # table2 serves the largest share of lookups, as in the paper.
        assert max(shares, key=shares.get) == "table2"

    def test_each_table_gets_its_share_of_total_lookups(self):
        specs = scaled_table_specs(1 / 2000, names=["table1", "table2", "table8"])
        model = generate_model_trace(specs, total_lookups=20000, seed=0)
        for name, spec in specs.items():
            # Each table is sized in queries: its share of the lookups over
            # its mean query length.
            table_lookups = max(1, round(20000 * spec.lookup_share))
            expected = max(1, round(table_lookups / spec.avg_lookups_per_query))
            assert len(model[name].queries) == expected, name

    @pytest.mark.parametrize(
        "total, error", [(-5, ValueError), (0, ValueError), (2.5, TypeError)]
    )
    def test_total_lookups_must_be_a_positive_integer(self, total, error):
        # Each of these used to yield a 37/45-lookup trace for table1/table2.
        specs = scaled_table_specs(1 / 2000, names=["table1", "table2"])
        with pytest.raises(error, match="total_lookups"):
            generate_model_trace(specs, total_lookups=total)


# ------------------------------------------------------- per-query reference
def _reference_generate(generator, num_queries):
    """The per-query loop ``generate`` replaced: draw and resolve one query at a time.

    Consumes ``generator``'s random stream and window state exactly as
    :meth:`SyntheticTraceGenerator.generate` must: topic count, topic choices,
    the topic/global split, the topic assignment, then one ``random`` call per
    topic slot with picks and one for the global picks; each query is
    de-duplicated in draw order and truncated to its size on its own.
    """
    rng = generator._rng
    spec = generator.spec
    queries = []
    sizes = rng.poisson(lam=spec.avg_lookups_per_query, size=num_queries)
    for size in np.maximum(sizes, 1).tolist():
        if generator._queries_in_window >= generator.window_queries:
            generator._start_new_window(rng)
        generator._queries_in_window += 1
        count = max(1, int(rng.poisson(TOPICS_PER_QUERY)))
        recent = generator._recent_topics
        topics = []
        for _ in range(count):
            if recent and rng.random() < BURSTINESS:
                topics.append(recent[rng.integers(len(recent))])
            else:
                topics.append(int(generator._topic_sampler.invert(rng.random())))
        recent.extend(topics)
        max_recent = max(8, int(30 * TOPICS_PER_QUERY))
        if len(recent) > max_recent:
            del recent[:-max_recent]

        draw = max(size + 4, int(round(size * 1.4)))
        num_topic_picks = int(rng.binomial(draw, TOPIC_AFFINITY))
        parts = []
        if num_topic_picks:
            per_topic = np.bincount(
                rng.integers(0, len(topics), size=num_topic_picks),
                minlength=len(topics),
            )
            for topic, picks in zip(topics, per_topic.tolist()):
                if picks == 0:
                    continue
                sampler, members = generator._topic_samplers[topic]
                drawn = sampler.invert(rng.random(picks))
                parts.append(drawn if members is None else members[drawn])
        if draw - num_topic_picks:
            parts.append(
                generator._popularity_sampler.invert(rng.random(draw - num_topic_picks))
            )
        distinct_in_order = first_occurrences(np.concatenate(parts))[:size]
        queries.append(generator.active_ids[distinct_in_order])
    return Trace(queries, spec.num_vectors)


@st.composite
def generator_cases(draw):
    """A table of 8-4096 vectors, a seed and a window of 1-2000 lookups."""
    num_vectors = draw(st.integers(8, 4096))
    spec = TableSpec(
        name="hypothesis",
        num_vectors=num_vectors,
        avg_lookups_per_query=draw(st.floats(1.0, 100.0)),
        lookup_share=0.5,
        compulsory_miss_rate=draw(st.floats(0.01, 0.9)),
        popularity_alpha=draw(st.floats(0.0, 1.5)),
        num_topics=draw(st.integers(1, 512)),
    )
    return spec, draw(st.integers(0, 2**32)), draw(st.integers(1, 2000))


class TestGenerateMatchesPerQueryReference:
    """``generate`` equals the per-query loop: same trace, same stream, same state."""

    @staticmethod
    def _assert_same_state(new, reference):
        assert new._rng.bit_generator.state == reference._rng.bit_generator.state
        assert new._recent_topics == reference._recent_topics
        assert new._queries_in_window == reference._queries_in_window

    @given(case=generator_cases(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_call_sequences_on_and_beside_window_boundaries(self, case, data):
        spec, seed, expected = case
        new = SyntheticTraceGenerator(spec, seed=seed, expected_lookups=expected)
        reference = SyntheticTraceGenerator(spec, seed=seed, expected_lookups=expected)
        window = new.window_queries
        for _ in range(data.draw(st.integers(1, 4), label="calls")):
            # How far the stream is from the next boundary, then land on it,
            # one query either side of it, or a window or two past it.
            to_boundary = max(window - new._queries_in_window, 0)
            count = data.draw(
                st.sampled_from(
                    [
                        to_boundary,
                        to_boundary - 1,
                        to_boundary + 1,
                        to_boundary + window,
                        to_boundary + 2 * window + 1,
                        1,
                    ]
                ),
                label="queries",
            )
            count = max(1, min(count, 3000))
            trace = new.generate(count)
            assert trace == _reference_generate(reference, count)
            assert all(query.dtype == np.int64 for query in trace.queries)
            self._assert_same_state(new, reference)

    @pytest.mark.parametrize("limit", [1, 60, 500])
    def test_windows_resolved_in_pieces(self, monkeypatch, limit):
        passes = []
        resolve = SyntheticTraceGenerator._resolve

        def recording(generator, window):
            passes.append(len(window.sizes))
            return resolve(generator, window)

        def assert_matches_reference():
            spec = make_spec(num_vectors=2048)
            new = SyntheticTraceGenerator(spec, seed=3, expected_lookups=900)
            reference = SyntheticTraceGenerator(spec, seed=3, expected_lookups=900)
            for count in (50, new.window_queries * 2 - 50):
                assert new.generate(count) == _reference_generate(reference, count)
                self._assert_same_state(new, reference)

        monkeypatch.setattr(SyntheticTraceGenerator, "_resolve", recording)
        assert_matches_reference()
        whole_windows = len(passes)
        passes.clear()
        monkeypatch.setattr(sampling, "RESOLVE_DRAWS", limit)
        assert_matches_reference()
        # The lower cap cuts the same windows into more resolve passes.
        assert len(passes) > whole_windows

    def test_empty_topics_fall_back_to_the_window_law(self):
        spec = make_spec(num_vectors=8, avg_lookups=6.0)
        new = SyntheticTraceGenerator(spec, seed=2, expected_lookups=40)
        reference = SyntheticTraceGenerator(spec, seed=2, expected_lookups=40)
        assert any(members is None for _, members in new._topic_samplers)
        assert new.generate(50) == _reference_generate(reference, 50)
        self._assert_same_state(new, reference)


class TestStreamFacts:
    """The two properties of NumPy's ``Generator`` that ``generate`` relies on.

    The per-query loop draws only; a window's uniforms are inverted later.  That
    is the same stream only while these hold, so a NumPy upgrade that breaks
    either one fails here by name rather than as a changed digest.
    """

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_split_random_calls_equal_one_joined_call(self, seed):
        sizes = [3, 0, 1, 17, 5]
        for prefix in (None, "half-buffered"):
            split_rng = np.random.default_rng(seed)
            joined_rng = np.random.default_rng(seed)
            if prefix:
                # A small-range integer draw takes 32 bits and buffers the
                # other half of its 64-bit output.
                for rng in (split_rng, joined_rng):
                    rng.integers(5)
                assert joined_rng.bit_generator.state["has_uint32"] == 1
            split = np.concatenate([split_rng.random(size) for size in sizes])
            joined = joined_rng.random(sum(sizes))
            np.testing.assert_array_equal(split, joined)
            assert split_rng.bit_generator.state == joined_rng.bit_generator.state

    @pytest.mark.parametrize("size", [1, 2, 40])
    def test_integers_over_one_value_consume_nothing(self, size):
        rng = np.random.default_rng(11)
        rng.integers(5)  # leave a buffered half, as mid-query
        before = rng.bit_generator.state
        assert rng.integers(0, 1, size=size).tolist() == [0] * size
        assert rng.bit_generator.state == before


# ---------------------------------------------------------------- seeded golden
#: (label, scale, tables, vectors per block, train x, eval x) of each pinned
#: call pattern.  The first is a train call then an eval call one window
#: long; the second is the benchmark's set-up exactly (``benchmarks/perf``:
#: four tables at 1/1000, seeds ``7 * 1009 + index``, 3x train, 12x eval).
#: Its table1 train call is exactly three windows, so the eval call starts on
#: a window boundary; table2 / table6 / table7 start one query beside one.
GOLDEN_CALL_PATTERNS = (
    ("", 1 / 2000, ("table1", "table6"), None, 3, 1),
    ("1/1000 ", 1 / 1000, ("table1", "table2", "table6", "table7"), 32, 3, 12),
)


def golden_generator_digests():
    """A train call then an eval call on one generator per Table 1 spec.

    The train call is three windows long, so both calls cross a traffic-window
    boundary and the eval call starts mid-stream — the way the benchmark's
    set-up and every ``bench_*`` script use a generator.
    """
    digests = {}
    for label, scale, names, per_block, train_x, eval_x in GOLDEN_CALL_PATTERNS:
        specs = scaled_table_specs(scale, names=list(names))
        for index, (name, spec) in enumerate(specs.items()):
            lookups = (
                paper_shaped_lookups(spec)
                if per_block is None
                else paper_shaped_lookups(spec, per_block)
            )
            generator = SyntheticTraceGenerator(
                spec, seed=7 * 1009 + index, expected_lookups=lookups
            )
            digests[label + name] = {
                "train": trace_digest(generator.generate_lookups(train_x * lookups)),
                "eval": trace_digest(generator.generate_lookups(eval_x * lookups)),
            }
    return digests


class TestSeededGolden:
    def test_generated_traces_match_the_pinned_digests(self):
        assert golden_generator_digests() == GOLDEN_GENERATOR_DIGESTS


#: Frozen output of :func:`golden_generator_digests`.  The 1/2000 entries were
#: captured from the ``Generator.choice(p=)`` implementation, the 1/1000 ones
#: from the per-query draw-and-resolve loop (``_reference_generate``).  A trace is
#: a pure function of (spec, seed, call sequence); these change only when the
#: generative model changes — regenerate deliberately with
#: ``python tests/test_generator.py``.
GOLDEN_GENERATOR_DIGESTS = {
    "table1": {
        "train": {
            "queries": 484,
            "lookups": 9505,
            "sha256": "23ec61c4a504a08da5f45104938690c9d16b17acbccaf00293a3578a3900336f",
        },
        "eval": {
            "queries": 161,
            "lookups": 3084,
            "sha256": "9dd034dae64b66da0119310921300104dd7984640fe2ff8c3bc4a14d3e4a6424",
        },
    },
    "table6": {
        "train": {
            "queries": 49,
            "lookups": 2200,
            "sha256": "30df36412c901fa7a83a54b4fde1c1f67fc339cc1287864f52316b90467e843e",
        },
        "eval": {
            "queries": 16,
            "lookups": 762,
            "sha256": "87b7b5dcb5c962757b5aa57607c533c0c14d904aecb085638221b9916d066c81",
        },
    },
    "1/1000 table1": {
        "train": {
            "queries": 969,
            "lookups": 23585,
            "sha256": "be98d1c9eda587b48c329f203486c05810d16650d56a8aa96e54db8909bdbaaa",
        },
        "eval": {
            "queries": 3876,
            "lookups": 94184,
            "sha256": "a4cedf4b04a77897e1fa5605c84a3d6fe80e056506ad74a60e48d710a9a275bc",
        },
    },
    "1/1000 table2": {
        "train": {
            "queries": 691,
            "lookups": 30268,
            "sha256": "61c361384bc3e64cf52dfd83a984b6079d5ae62e26a65d741f06546b08cac05a",
        },
        "eval": {
            "queries": 2765,
            "lookups": 121219,
            "sha256": "ebef7c01e5cb9c2d02b2172e90ed351c73f9bfc2ba5b142075ed1445bce3e7be",
        },
    },
    "1/1000 table6": {
        "train": {
            "queries": 97,
            "lookups": 4528,
            "sha256": "d1fa5ed056dc04bc59af8e90c121256158b6e0588fe1cab5eb2dd84fb62b1727",
        },
        "eval": {
            "queries": 390,
            "lookups": 18496,
            "sha256": "6670c25758468e3208c376601e7d15d09933d1e29862e2808f4cf3414da931ba",
        },
    },
    "1/1000 table7": {
        "train": {
            "queries": 227,
            "lookups": 8372,
            "sha256": "32c774e6e9d5190a4c0a1b38c7465e64cc8f08ee44f2b013e4f7ea288614794c",
        },
        "eval": {
            "queries": 910,
            "lookups": 32697,
            "sha256": "15e16cde137c7f1cd88803a485ee80a2996efe4c0587ece3ea8a48599adc1307",
        },
    },
}


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    import pprint

    print("GOLDEN_GENERATOR_DIGESTS = ", end="")
    pprint.pprint(golden_generator_digests(), sort_dicts=False)
