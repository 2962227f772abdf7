"""Unit and property tests for the sampling primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.block import BlockLayout
from repro.utils.sampling import (
    UNIFORM_BITS,
    InverseCDFSampler,
    StackedLaws,
    binomial_laws,
    first_occurrences,
    poisson_probabilities,
    resolve_queries,
    sample_queries_spatially,
    spatial_hash_sample_mask,
    stream_keys,
    zipf_probabilities,
)


class TestSpatialHashSampleMask:
    def test_rate_zero_and_one(self):
        ids = np.arange(100)
        assert not spatial_hash_sample_mask(ids, 0.0).any()
        assert spatial_hash_sample_mask(ids, 1.0).all()

    def test_deterministic_per_id(self):
        ids = np.arange(1000)
        mask_a = spatial_hash_sample_mask(ids, 0.3, seed=5)
        mask_b = spatial_hash_sample_mask(ids, 0.3, seed=5)
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_decision_independent_of_position(self):
        # The same id must receive the same decision regardless of the array
        # it appears in — the spatial-sampling property miniature caches need.
        single = spatial_hash_sample_mask(np.array([42]), 0.5, seed=1)[0]
        in_context = spatial_hash_sample_mask(np.arange(100), 0.5, seed=1)[42]
        assert single == in_context

    def test_seed_changes_sample(self):
        ids = np.arange(5000)
        mask_a = spatial_hash_sample_mask(ids, 0.5, seed=0)
        mask_b = spatial_hash_sample_mask(ids, 0.5, seed=1)
        assert (mask_a != mask_b).any()

    def test_rate_approximately_respected(self):
        ids = np.arange(20000)
        mask = spatial_hash_sample_mask(ids, 0.2, seed=0)
        assert 0.17 < mask.mean() < 0.23

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            spatial_hash_sample_mask(np.arange(10), 1.5)

    @given(rate=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_mask_fraction_within_bounds(self, rate):
        ids = np.arange(2000)
        mask = spatial_hash_sample_mask(ids, rate, seed=3)
        assert 0.0 <= mask.mean() <= 1.0


#: A shuffled placement of 600 vectors, 8 per block (the last block partial).
LAYOUT = BlockLayout(np.random.default_rng(4).permutation(600), 8)


class TestSampleQueriesSpatially:
    def test_empty_queries_dropped(self):
        queries = [np.array([1, 2, 3]), np.array([599])]
        sampled = sample_queries_spatially(queries, LAYOUT, 0.001, seed=0)
        assert all(q.size > 0 for q in sampled)

    def test_full_rate_keeps_everything(self):
        queries = [np.array([1, 2, 3]), np.array([4, 5])]
        sampled = sample_queries_spatially(queries, LAYOUT, 1.0)
        assert len(sampled) == 2
        np.testing.assert_array_equal(sampled[0], queries[0])

    def test_subset_of_original(self):
        queries = [np.arange(100), np.arange(50, 150)]
        sampled = sample_queries_spatially(queries, LAYOUT, 0.3, seed=2)
        for original, kept in zip(queries, sampled):
            assert set(kept.tolist()) <= set(original.tolist())

    def test_out_of_range_id_raises(self):
        with pytest.raises(IndexError, match="vector ids must be in"):
            sample_queries_spatially([np.array([1, 600])], LAYOUT, 0.5)

    @given(
        queries=st.lists(
            st.lists(st.integers(min_value=0, max_value=599), max_size=12), max_size=20
        ),
        rate=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_block_is_kept_or_dropped_whole(self, queries, rate, seed):
        """Every lookup of a sampled block survives; no lookup of another does."""
        stream = np.array([i for q in queries for i in q], dtype=np.int64)
        sampled = sample_queries_spatially(
            [np.array(q, dtype=np.int64) for q in queries], LAYOUT, rate, seed=seed
        )
        kept = np.concatenate(sampled) if sampled else np.empty(0, dtype=np.int64)
        kept_blocks = set(LAYOUT.block_of(kept).tolist()) if kept.size else set()
        if stream.size:
            in_kept_block = np.isin(LAYOUT.block_of(stream), list(kept_blocks))
            np.testing.assert_array_equal(kept, stream[in_kept_block])
        else:
            assert kept.size == 0


def sample_queries_one_at_a_time(queries, layout, rate, seed=0):
    """The per-query definition ``sample_queries_spatially`` must equal."""
    sampled = []
    for query in queries:
        query = np.asarray(query, dtype=np.int64)
        mask = spatial_hash_sample_mask(layout.block_of(query), rate, seed=seed)
        if mask.any():
            sampled.append(query[mask])
    return sampled


class TestSampleQueriesSpatiallyMatchesPerQueryDefinition:
    @staticmethod
    def assert_same(queries, rate, seed):
        fast = sample_queries_spatially(queries, LAYOUT, rate, seed=seed)
        slow = sample_queries_one_at_a_time(queries, LAYOUT, rate, seed=seed)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.5, 1.0])
    def test_empty_single_and_duplicate_id_queries(self, rate):
        queries = [
            np.array([], dtype=np.int64),
            np.array([7]),
            np.array([3, 3, 3, 9, 3]),
            np.array([], dtype=np.int64),
            np.arange(200),
            [11, 12, 11],
            np.array([599, 5], dtype=np.int64),
            np.array([], dtype=np.int64),
        ]
        for seed in range(4):
            self.assert_same(queries, rate, seed)

    def test_no_queries(self):
        assert sample_queries_spatially([], LAYOUT, 0.5) == []
        assert sample_queries_spatially([np.array([], dtype=np.int64)], LAYOUT, 0.5) == []

    @given(
        queries=st.lists(
            st.lists(st.integers(min_value=0, max_value=599), max_size=12), max_size=20
        ),
        rate=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_streams(self, queries, rate, seed):
        self.assert_same([np.array(q, dtype=np.int64) for q in queries], rate, seed)


def law_with_zeros(draw, num_categories):
    """A normalised law over ``num_categories`` with some exact-zero entries."""
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
            min_size=num_categories,
            max_size=num_categories,
        )
    )
    weights = np.array(weights)
    if not weights.any():
        weights[draw(st.integers(0, num_categories - 1))] = 1.0
    return weights / weights.sum()


@st.composite
def laws(draw):
    # Small laws exhaustively shaped by Hypothesis; large ones (up to the
    # 4 096-entry rank law of the drift scenario) from a seeded generator.
    if draw(st.booleans()):
        return law_with_zeros(draw, draw(st.integers(1, 24)))
    num_categories = draw(st.integers(25, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    weights = rng.random(num_categories) ** 4
    weights[rng.random(num_categories) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if not weights.any():
        weights[0] = 1.0
    return weights / weights.sum()


class TestInverseCDFSampler:
    @given(law=laws(), seed=st.integers(0, 2**32), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_stream_compatible_with_generator_choice(self, law, seed, data):
        n = law.size
        sampler = InverseCDFSampler(law)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        # Several draws in a row, so a divergence in state would compound.
        for size in data.draw(
            st.lists(st.sampled_from([None, 0, 1, n]), min_size=1, max_size=4)
        ):
            drawn = sampler.invert(ours.random(size))
            expected = numpys.choice(n, size, p=law)
            assert np.shape(drawn) == np.shape(expected)
            np.testing.assert_array_equal(drawn, expected)
            assert ours.bit_generator.state == numpys.bit_generator.state

    def test_single_category_always_drawn(self):
        sampler = InverseCDFSampler(np.array([1.0]))
        rng = np.random.default_rng(0)
        assert sampler.invert(rng.random()) == 0
        assert not sampler.invert(rng.random(50)).any()

    def test_zero_probability_categories_never_drawn(self):
        law = np.array([0.0, 0.25, 0.0, 0.75, 0.0])
        drawn = InverseCDFSampler(law).invert(np.random.default_rng(1).random(2000))
        assert set(drawn.tolist()) == {1, 3}

    def test_law_is_copied_at_construction(self):
        law = np.array([0.5, 0.5])
        sampler = InverseCDFSampler(law)
        law[:] = [1.0, 0.0]
        drawn = sampler.invert(np.random.default_rng(2).random(200))
        assert set(drawn.tolist()) == {0, 1}

    @pytest.mark.parametrize(
        "bad",
        [
            [-0.1, 1.1],
            [np.nan, 1.0],
            [],
            [[0.5, 0.5]],
            0.5,
            [0.5, 0.6],
            [0.2, 0.2],
            [np.inf, 0.0],
        ],
        ids=["negative", "nan", "empty", "2-d", "0-d", "sum>1", "sum<1", "inf"],
    )
    def test_construction_rejects_what_choice_rejected(self, bad):
        with pytest.raises(ValueError):
            InverseCDFSampler(np.array(bad, dtype=np.float64))


@st.composite
def pending_batches(draw):
    """Queries' picks over a universe of 1-4096 positions, heavily duplicated.

    Each query draws 1-60 picks from an alphabet of at most 12 positions, or
    from the whole universe; its size may sit below, at or above the number
    of distinct positions it drew.
    """
    universe = draw(st.one_of(st.sampled_from([1, 2, 4096]), st.integers(1, 4096)))
    num = draw(st.one_of(st.just(1), st.integers(1, 30)))
    parts, sizes = [], []
    for _ in range(num):
        alphabet = min(draw(st.sampled_from([1, 3, 12, universe])), universe)
        low = draw(st.integers(0, universe - alphabet))
        picks = draw(st.lists(st.integers(low, low + alphabet - 1), min_size=1, max_size=60))
        parts.append(np.array(picks, dtype=np.int64))
        sizes.append(draw(st.integers(1, len(picks) + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    ids = rng.permutation(universe).astype(np.int64) * 1_000_003 + 7
    return parts, sizes, ids


class TestResolveQueries:
    """The batch resolver equals de-duplicating and cutting each query alone."""

    @given(batch=pending_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_query_first_occurrences(self, batch):
        parts, sizes, ids = batch
        resolved = resolve_queries(
            np.concatenate(parts),
            np.array([part.size for part in parts], dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            ids,
        )
        assert len(resolved) == len(parts)
        for query, part, size in zip(resolved, parts, sizes):
            assert query.dtype == np.int64
            np.testing.assert_array_equal(query, ids[first_occurrences(part)[:size]])


class TestFirstOccurrences:
    def test_keeps_first_of_each_in_draw_order(self):
        ids = np.array([5, 2, 5, 9, 2, 2, 1])
        np.testing.assert_array_equal(first_occurrences(ids), [5, 2, 9, 1])

    def test_empty_and_already_distinct(self):
        assert first_occurrences(np.empty(0, dtype=np.int64)).size == 0
        ids = np.array([4, 3, 8])
        np.testing.assert_array_equal(first_occurrences(ids), ids)

    @given(ids=st.lists(st.integers(min_value=0, max_value=30), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_order(self, ids):
        np.testing.assert_array_equal(
            first_occurrences(np.array(ids, dtype=np.int64)), list(dict.fromkeys(ids))
        )


class TestZipfProbabilities:
    def test_sums_to_one(self):
        probs = zipf_probabilities(1000, 0.8)
        assert probs.sum() == pytest.approx(1.0)

    def test_alpha_zero_is_uniform(self):
        probs = zipf_probabilities(10, 0.0)
        np.testing.assert_allclose(probs, 0.1)

    def test_monotone_decreasing(self):
        probs = zipf_probabilities(100, 1.2)
        assert (np.diff(probs) <= 0).all()

    def test_higher_alpha_more_concentrated(self):
        light = zipf_probabilities(1000, 0.5)
        heavy = zipf_probabilities(1000, 2.0)
        assert heavy[0] > light[0]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            zipf_probabilities(10, -0.5)

    @pytest.mark.parametrize("n", [2.5, np.float64(3.7), 3.0, "3", True])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(TypeError, match="^n must be an integer"):
            zipf_probabilities(n, 1.0)

    @pytest.mark.parametrize("n", [0, -3, np.int64(0)])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be >= 1"):
            zipf_probabilities(n, 1.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be"):
            zipf_probabilities(3, alpha)

    def test_numpy_integer_n_accepted(self):
        np.testing.assert_array_equal(
            zipf_probabilities(np.int64(5), 0.9), zipf_probabilities(5, 0.9)
        )


def grid_uniforms(seed, size):
    """Uniforms on the counter draws' grid, ``j * 2**-UNIFORM_BITS``."""
    return np.random.default_rng(seed).integers(0, 2**UNIFORM_BITS, size) * 2.0**-UNIFORM_BITS


class TestStackedLaws:
    @given(
        laws=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(
                lambda weights: sum(weights) > 0
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_row_inverts_as_its_own_sampler(self, laws, seed):
        samplers = [InverseCDFSampler(np.array(law) / sum(law)) for law in laws]
        rows = np.arange(len(laws)).repeat([len(law) for law in laws])
        cdf = np.concatenate([sampler._cdf for sampler in samplers])
        values = np.arange(rows.size)
        stacked = StackedLaws(rows, cdf, values)
        uniforms = grid_uniforms(seed, 500)
        which = np.random.default_rng(seed + 1).integers(0, len(laws), 500)
        starts = np.concatenate(([0], np.cumsum([len(law) for law in laws])))
        expected = [
            starts[row] + samplers[row].invert(u) for row, u in zip(which, uniforms)
        ]
        assert stacked.invert(which, uniforms).tolist() == expected

    @pytest.mark.parametrize("size", [0, 1, 8192])
    def test_ascending_search_keeps_draw_order(self, size):
        # invert searches its keys sorted and scatters the results back:
        # repeated keys, keys on a CDF step and keys in descending order
        # must each come back at their own draw position.
        laws = [np.array([0.25, 0.25, 0.5]), np.array([0.5, 0.5]), np.array([1.0])]
        samplers = [InverseCDFSampler(law) for law in laws]
        rows = np.arange(len(laws)).repeat([law.size for law in laws])
        cdf = np.concatenate([sampler._cdf for sampler in samplers])
        stacked = StackedLaws(rows, cdf, np.arange(rows.size) * 10)
        steps = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-UNIFORM_BITS])
        rng = np.random.default_rng(size)
        uniforms = np.sort(np.concatenate([steps, grid_uniforms(size, size)])[:size])[::-1]
        which = rng.integers(0, len(laws), uniforms.size)
        starts = np.concatenate(([0], np.cumsum([law.size for law in laws])))
        expected = [
            10 * (starts[row] + samplers[row].invert(u)) for row, u in zip(which, uniforms)
        ]
        drawn = stacked.invert(which, uniforms)
        assert drawn.shape == (size,)
        assert drawn.tolist() == expected

    def test_poisson_probabilities_are_the_poisson_law(self):
        for mean in (0.5, 2.0, 34.83, 92.75):
            law = poisson_probabilities(mean)
            exact = [
                math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
                for k in range(law.size)
            ]
            np.testing.assert_allclose(law, exact, rtol=1e-9, atol=1e-300)
            # The truncated tail is negligible.
            assert abs(sum(exact) - 1.0) < 1e-12

    def test_binomial_rows_are_the_binomial_law(self):
        laws = binomial_laws(150, 0.8)
        uniforms = grid_uniforms(3, 400)
        for n in (0, 1, 2, 7, 49, 150):
            pmf = [math.comb(n, k) * 0.8**k * 0.2 ** (n - k) for k in range(n + 1)]
            cdf = np.cumsum(pmf)
            expected = np.minimum(cdf.searchsorted(uniforms, side="right"), n)
            drawn = laws.invert(np.full(uniforms.size, n), uniforms)
            np.testing.assert_array_equal(drawn, expected)


class TestStreamKeys:
    def test_keys_are_distinct_across_seeds_and_streams(self):
        keys = [key for seed in range(64) for key in stream_keys(seed, 10)]
        assert len(set(keys)) == len(keys)
        assert stream_keys(5, 3) == stream_keys(5, 10)[:3]
