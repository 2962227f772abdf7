"""Tests for stack distances and hit-rate curves (paper Figure 3).

``compute_stack_distances`` counts distances in O(N log N) array passes.  Its
oracle is the per-access Fenwick-tree loop it replaced (``_FenwickTree`` and
:func:`stack_distances_reference` below), and
``GOLDEN_STACK_DISTANCE_DIGESTS`` pins the distances of the streams the
benchmark drives, captured from the loop before the rewrite.  The hit-rate
curve is checked against the replay engine itself (Mattson: an LRU cache of
``c`` vectors hits exactly the accesses at distance ``<= c``).
"""

import hashlib
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.engine import replay_table_cache_batched
from repro.caching.policies import NoPrefetchPolicy
from repro.caching.stack_distance import (
    COLD_MISS,
    HitRateCurve,
    _earlier_greater_counts,
    compute_stack_distances,
    hit_rate_curve,
)
from repro.nvm.block import BlockLayout
from repro.scenarios import ScenarioConfig, generate_scenario_trace
from repro.workloads import SyntheticTraceGenerator, paper_shaped_lookups, scaled_table_specs
from repro.workloads.trace import Trace


# ----------------------------------------------------------------- the oracle
class _FenwickTree:
    """A Fenwick tree over positions 1..n supporting point update / prefix sum."""

    def __init__(self, size: int) -> None:
        self._tree = np.zeros(size + 1, dtype=np.int64)
        self._size = size

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        index += 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return int(total)


def stack_distances_reference(id_stream) -> np.ndarray:
    """The per-access Fenwick loop: two tree walks per access.

    Each distinct id keeps one marker, at its latest access, so the distinct
    ids accessed strictly after ``previous`` are a prefix-sum difference.
    """
    stream = np.asarray(id_stream, dtype=np.int64)
    distances = np.empty(stream.size, dtype=np.int64)
    tree = _FenwickTree(stream.size)
    last_position: Dict[int, int] = {}
    for position, vector_id in enumerate(stream.tolist()):
        previous = last_position.get(vector_id)
        if previous is None:
            distances[position] = COLD_MISS
        else:
            distances[position] = (
                tree.prefix_sum(position - 1) - tree.prefix_sum(previous) + 1
            )
            tree.add(previous, -1)
        tree.add(position, +1)
        last_position[vector_id] = position
    return distances


def naive_lru_hits(stream, cache_size):
    """Reference LRU simulation used as an oracle."""
    stack = []
    hits = 0
    for key in stream:
        if key in stack:
            index = stack.index(key)
            if index < cache_size:
                hits += 1
            stack.pop(index)
        stack.insert(0, key)
    return hits


def assert_matches_oracle(stream) -> None:
    expected = stack_distances_reference(stream)
    actual = compute_stack_distances(stream)
    assert actual.dtype == np.int64
    np.testing.assert_array_equal(actual, expected)


#: Streams of 1-5 000 accesses drawn with numpy: alphabets from one id to all
#: distinct, ids dense, sparse, negative or around 2**40.
seeded_streams = st.builds(
    lambda length, alphabet, seed, scale, offset: (
        np.random.default_rng(seed).integers(0, alphabet, size=length) * scale + offset
    ),
    length=st.integers(min_value=1, max_value=5000),
    alphabet=st.sampled_from([1, 2, 7, 64, 1000, 10**6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([1, 7919, 2**40]),
    offset=st.sampled_from([0, -3, -(2**40)]),
)


class TestStackDistances:
    def test_known_sequence(self):
        distances = compute_stack_distances([1, 2, 1, 3, 2])
        # 1:cold, 2:cold, 1:distance 2, 3:cold, 2:distance 3
        assert distances.tolist() == [COLD_MISS, COLD_MISS, 2, COLD_MISS, 3]

    def test_repeated_access_distance_one(self):
        distances = compute_stack_distances([7, 7, 7])
        assert distances.tolist() == [COLD_MISS, 1, 1]

    def test_empty_stream(self):
        assert compute_stack_distances([]).size == 0

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            compute_stack_distances(np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("stream", [[1.7, 1.2], ["3", "3"], [True, False]])
    def test_non_integer_ids_rejected(self, stream):
        with pytest.raises(TypeError):
            compute_stack_distances(stream)

    @given(
        stream=st.lists(st.integers(min_value=0, max_value=15), max_size=120),
        cache_size=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_lru(self, stream, cache_size):
        """Hits derived from stack distances must equal a real LRU simulation."""
        distances = compute_stack_distances(stream)
        finite = distances[distances != COLD_MISS]
        hits_from_distances = int((finite <= cache_size).sum())
        assert hits_from_distances == naive_lru_hits(stream, cache_size)


class TestKernelMatchesFenwickOracle:
    """The counting kernel ≡ the per-access loop, bit for bit."""

    @given(stream=st.lists(st.integers(min_value=0, max_value=25), max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_small_alphabets(self, stream):
        assert_matches_oracle(stream)

    @given(stream=st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_64_bit_ids(self, stream):
        assert_matches_oracle(stream)

    @given(stream=seeded_streams)
    @settings(max_examples=60, deadline=None)
    def test_seeded_streams_up_to_5000_accesses(self, stream):
        assert_matches_oracle(stream)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 63, 64, 65, 1024, 1025, 4097])
    def test_degenerate_streams(self, length):
        assert_matches_oracle(np.full(length, 2**40 + 3))  # all equal
        assert_matches_oracle(np.arange(length)[::-1] - 7)  # all distinct
        assert_matches_oracle(np.tile([5, -5], length))  # two ids alternating
        np.testing.assert_array_equal(
            compute_stack_distances(np.full(length, 9)), [COLD_MISS] + [1] * (length - 1)
        )

    def test_empty_and_single(self):
        assert compute_stack_distances(np.empty(0, dtype=np.int64)).size == 0
        assert compute_stack_distances([4]).tolist() == [COLD_MISS]

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), m=st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_inversion_count_at_both_widths(self, seed, m):
        """The pass kernel on a permutation, in the 32-bit width every stream
        below 2**29 accesses uses and the 64-bit width of longer ones."""
        ranks = np.random.default_rng(seed).permutation(m)
        expected = [int((ranks[:i] > ranks[i]).sum()) for i in range(m)]
        for dtype in (np.int32, np.int64):
            counts = _earlier_greater_counts(ranks.astype(dtype))
            assert counts.dtype == dtype
            assert counts.tolist() == expected

    def test_skewed_streams(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            stream = (rng.integers(0, 500, size=2000) ** 2 % 500).astype(np.int64)
            assert_matches_oracle(stream)


# ---------------------------------------------------------------- seeded golden
def golden_streams() -> Dict[str, np.ndarray]:
    """The streams ``hit_rate_curve`` sees in the benchmark's shapes: the
    table1 and table6 training traces at 1/2000 (those of
    ``GOLDEN_SHP_DIGESTS``) and a 400-query drift window."""
    streams = {}
    specs = scaled_table_specs(1 / 2000, names=["table1", "table6"])
    for index, (name, spec) in enumerate(specs.items()):
        lookups = paper_shaped_lookups(spec)
        generator = SyntheticTraceGenerator(
            spec, seed=7 * 1009 + index, expected_lookups=lookups
        )
        streams[name] = generator.generate_lookups(3 * lookups).flatten()
    streams["drift-window"] = generate_scenario_trace(
        ScenarioConfig(kind="drift", num_queries=400, num_vectors=2048, seed=7)
    ).flatten()
    return streams


def golden_stack_distance_digests():
    digests = {}
    for name, stream in golden_streams().items():
        distances = compute_stack_distances(stream)
        digests[name] = {
            "accesses": int(distances.size),
            "cold": int(np.count_nonzero(distances == COLD_MISS)),
            "sha256": hashlib.sha256(distances.astype("<i8").tobytes()).hexdigest(),
        }
    return digests


class TestSeededGolden:
    def test_distances_match_the_pinned_digests(self):
        assert golden_stack_distance_digests() == GOLDEN_STACK_DISTANCE_DIGESTS


#: Frozen output of :func:`golden_stack_distance_digests`, captured from the
#: Fenwick-tree kernels before the counting rewrite.  Distances are a pure
#: function of the stream; regenerate only if the streams change on purpose
#: (``python tests/test_stack_distance.py``).
GOLDEN_STACK_DISTANCE_DIGESTS = {
    "table1": {
        "accesses": 9505,
        "cold": 519,
        "sha256": "eedca7958d14e34e3a0eb76bfbe4bcb0f70454287112a9cb022c7cc2d331c404",
    },
    "table6": {
        "accesses": 2200,
        "cold": 560,
        "sha256": "44efcb0f49c89423c09c29b86b46ba9a22880638223124be638fbb353aa9cdbf",
    },
    "drift-window": {
        "accesses": 8971,
        "cold": 1782,
        "sha256": "842a96a28837de7abe5fb38e4dd6830131f4d1b3fd2b9148cd90dbbe7e48465c",
    },
}


# --------------------------------------------------------------- hit-rate curve
class TestHitRateCurve:
    def test_monotone_non_decreasing(self, eval_trace):
        curve = hit_rate_curve(eval_trace, cache_sizes=[10, 50, 100, 500, 1000])
        assert (np.diff(curve.hit_rates) >= 0).all()

    def test_bounded_by_one_minus_compulsory(self, eval_trace):
        curve = hit_rate_curve(eval_trace, cache_sizes=[eval_trace.num_vectors])
        compulsory = eval_trace.unique_vectors().size / eval_trace.num_lookups
        assert curve.hit_rates[-1] == pytest.approx(1 - compulsory, abs=1e-9)

    def test_accepts_raw_stream(self):
        curve = hit_rate_curve(np.array([1, 2, 1, 2, 1]), cache_sizes=[1, 2, 3])
        assert curve.total_lookups == 5
        assert curve.hit_rates[-1] == pytest.approx(3 / 5)

    def test_empty_trace(self):
        curve = hit_rate_curve(Trace([], num_vectors=4), cache_sizes=[1, 2])
        assert (curve.hit_rates == 0).all()

    def test_default_sizes_geometric(self, eval_trace):
        curve = hit_rate_curve(eval_trace, num_points=10)
        assert curve.cache_sizes.size <= 10
        assert (np.diff(curve.cache_sizes) > 0).all()

    def test_default_sizes_end_at_the_distinct_count(self, eval_trace):
        curve = hit_rate_curve(eval_trace)
        assert curve.cache_sizes[0] == 1
        assert curve.cache_sizes[-1] == eval_trace.unique_vectors().size

    def test_interpolation_and_hits(self):
        curve = HitRateCurve(np.array([10, 20]), np.array([0.2, 0.4]), total_lookups=100)
        assert curve.hit_rate_at(15) == pytest.approx(0.3)
        assert curve.hit_rate_at(0) == pytest.approx(0.0)
        assert curve.hit_rate_at(100) == pytest.approx(0.4)  # clamps right
        assert curve.hits_at(20) == pytest.approx(40)

    def test_validation(self):
        with pytest.raises(ValueError):
            HitRateCurve(np.array([2, 1]), np.array([0.1, 0.2]), 10)
        with pytest.raises(ValueError):
            HitRateCurve(np.array([1]), np.array([0.1, 0.2]), 10)

    def test_skewed_trace_has_useful_small_cache(self, eval_trace):
        # A cache holding 20% of the distinct vectors should already serve a
        # sizeable fraction of lookups on a skewed workload.
        unique = eval_trace.unique_vectors().size
        curve = hit_rate_curve(eval_trace, cache_sizes=[max(1, unique // 5)])
        assert curve.hit_rates[0] > 0.2

    @given(stream=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_mattson_relation_with_the_replay_engine(self, stream):
        """At every size 0..distinct+1, the curve's hits are a no-prefetch
        engine replay's hits at that capacity."""
        ids = np.asarray(stream, dtype=np.int64)
        layout = BlockLayout.identity(int(ids.max()) + 1, 4)
        distinct = np.unique(ids).size
        for capacity in range(distinct + 2):
            curve = hit_rate_curve(ids, cache_sizes=[capacity])
            stats = replay_table_cache_batched(
                [ids], layout, NoPrefetchPolicy(), cache_size=capacity
            )
            assert curve.total_lookups == stats.lookups
            assert curve.hit_rates[0] == stats.hits / stats.lookups, capacity


class TestHostileInputs:
    """Each case used to give a silently wrong curve."""

    @pytest.mark.parametrize("stream", [[1.7, 1.2], ["3", "3"], [True, False]])
    def test_non_integer_ids_rejected(self, stream):
        # [1.7, 1.2] was truncated to id 1 twice: hit rate 0.5.
        with pytest.raises(TypeError, match="integers"):
            hit_rate_curve(stream)

    @pytest.mark.parametrize("size", [2.5, True, "3", np.float64(4.0)])
    def test_non_integer_cache_sizes_rejected(self, size):
        # 2.5 used to become 2.
        with pytest.raises(TypeError, match="cache_sizes"):
            hit_rate_curve([1, 2, 1], cache_sizes=[1, size])

    def test_negative_cache_sizes_rejected(self):
        with pytest.raises(ValueError, match=r"cache_sizes\[1\]"):
            hit_rate_curve([1, 2, 1], cache_sizes=[1, -1])
        with pytest.raises(ValueError, match="cache_sizes"):
            hit_rate_curve([], cache_sizes=[-1])

    @pytest.mark.parametrize("num_points,error", [(-1, ValueError), (2.5, TypeError), (True, TypeError)])
    def test_bad_num_points_rejected(self, num_points, error):
        with pytest.raises(error, match="num_points"):
            hit_rate_curve([1, 2, 1], num_points=num_points)

    def test_numpy_integer_sizes_accepted(self):
        curve = hit_rate_curve([1, 2, 1], cache_sizes=[np.int64(2), 0])
        assert curve.cache_sizes.tolist() == [0, 2]
        assert curve.hit_rates.tolist() == [0.0, pytest.approx(1 / 3)]

    @pytest.mark.parametrize("rate", [float("nan"), 1.5, -0.1, float("inf")])
    def test_curve_rejects_rates_outside_the_unit_interval(self, rate):
        with pytest.raises(ValueError, match=r"hit_rates\[1\]"):
            HitRateCurve(np.array([1, 2, 3]), np.array([0.1, rate, 0.3]), 10)

    @pytest.mark.parametrize("total,error", [(-1, ValueError), (2.5, TypeError), (True, TypeError)])
    def test_curve_rejects_bad_lookup_totals(self, total, error):
        with pytest.raises(error, match="total_lookups"):
            HitRateCurve(np.array([1]), np.array([0.5]), total)


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    import pprint

    print("GOLDEN_STACK_DISTANCE_DIGESTS = ", end="")
    pprint.pprint(golden_stack_distance_digests(), sort_dicts=False)
