"""Tests for the synthetic workload generator."""

import os
import sys

if __package__ in (None, ""):  # direct script run (golden regeneration)
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

import numpy as np
import pytest

from repro.workloads import (
    SyntheticTraceGenerator,
    build_generators,
    generate_model_trace,
    paper_shaped_lookups,
    scaled_table_specs,
)
from tests.conftest import make_spec, trace_digest


class TestPaperShapedLookups:
    def test_density_formula(self):
        spec = make_spec(num_vectors=3200, compulsory=0.1)
        lookups = paper_shaped_lookups(spec, vectors_per_block=32, unique_per_block=2.0)
        assert lookups == pytest.approx(2.0 * 100 / 0.1, rel=0.01)

    def test_monotone_in_density(self):
        spec = make_spec()
        assert paper_shaped_lookups(spec, unique_per_block=1.0) < paper_shaped_lookups(
            spec, unique_per_block=3.0
        )


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
        assert len(generator.generate_lookups(0.5)) == 1
        for bad in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="num_lookups"):
                generator.generate_lookups(bad)


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
        model = generate_model_trace(specs, total_lookups=20000, seed=0, split="share")
        shares = model.lookup_shares()
        # table2 serves the largest share of lookups, as in the paper.
        assert max(shares, key=shares.get) == "table2"

    def test_paper_shaped_split_ignores_total(self):
        specs = scaled_table_specs(1 / 2000, names=["table1", "table8"])
        model = generate_model_trace(specs, seed=0, split="paper-shaped", lookups_scale=0.5)
        assert model.total_lookups > 0

    def test_share_split_requires_total(self):
        specs = scaled_table_specs(1 / 2000, names=["table1"])
        with pytest.raises(ValueError):
            generate_model_trace(specs, split="share")

    def test_unknown_split_rejected(self):
        specs = scaled_table_specs(1 / 2000, names=["table1"])
        with pytest.raises(ValueError):
            generate_model_trace(specs, total_lookups=100, split="bogus")

    def test_build_generators_shared_structure(self):
        specs = scaled_table_specs(1 / 2000, names=["table1", "table2"])
        generators = build_generators(specs, seed=4)
        assert set(generators) == {"table1", "table2"}
        train = generate_model_trace(specs, seed=4, split="paper-shaped", generators=generators, lookups_scale=0.5)
        evaluation = generate_model_trace(specs, seed=4, split="paper-shaped", generators=generators, lookups_scale=0.25)
        # Both traces must reference only each generator's active set.
        for name in specs:
            active = set(generators[name].active_ids.tolist())
            assert set(train[name].unique_vectors().tolist()) <= active
            assert set(evaluation[name].unique_vectors().tolist()) <= active


# ---------------------------------------------------------------- seeded golden
def golden_generator_digests():
    """A train call then an eval call on one generator per Table 1 spec.

    The train call is three windows long, so both calls cross a traffic-window
    boundary and the eval call starts mid-stream — the way the benchmark's
    set-up and every ``bench_*`` script use a generator.
    """
    specs = scaled_table_specs(1 / 2000, names=["table1", "table6"])
    digests = {}
    for index, (name, spec) in enumerate(specs.items()):
        lookups = paper_shaped_lookups(spec)
        generator = SyntheticTraceGenerator(
            spec, seed=7 * 1009 + index, expected_lookups=lookups
        )
        digests[name] = {
            "train": trace_digest(generator.generate_lookups(3 * lookups)),
            "eval": trace_digest(generator.generate_lookups(lookups)),
        }
    return digests


class TestSeededGolden:
    def test_generated_traces_match_the_pinned_digests(self):
        assert golden_generator_digests() == GOLDEN_GENERATOR_DIGESTS


#: Frozen output of :func:`golden_generator_digests`, captured from the
#: ``Generator.choice(p=)`` implementation this generator replaced.  A trace is
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
}


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    import pprint

    print("GOLDEN_GENERATOR_DIGESTS = ", end="")
    pprint.pprint(golden_generator_digests(), sort_dicts=False)
