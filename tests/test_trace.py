"""Unit and property tests for the Trace / ModelTrace containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.trace import ModelTrace, Trace


def make_trace():
    return Trace([[1, 2, 3], [2, 4], [5]], num_vectors=10)


class TestTraceBasics:
    def test_len_and_lookups(self):
        trace = make_trace()
        assert len(trace) == 3
        assert trace.num_lookups == 6
        assert trace.avg_lookups_per_query == pytest.approx(2.0)

    def test_empty_queries_dropped(self):
        trace = Trace([[1, 2], [], [3]], num_vectors=5)
        assert len(trace) == 2

    def test_num_vectors_inferred(self):
        trace = Trace([[7, 3]])
        assert trace.num_vectors == 8

    def test_num_vectors_too_small_rejected(self):
        with pytest.raises(ValueError):
            Trace([[5]], num_vectors=3)

    @pytest.mark.parametrize(
        "num_vectors, error",
        [
            (1.5, TypeError),
            (2.9, TypeError),
            (True, TypeError),
            ("3", TypeError),
            (-3, ValueError),
            (np.int64(2), None),
        ],
    )
    def test_num_vectors_is_checked_before_the_range(self, num_vectors, error):
        # A size is not truncated: 1.5 used to become 1 with id 1 inside.
        if error is None:
            assert type(Trace([[0, 1]], num_vectors=num_vectors).num_vectors) is int
            return
        with pytest.raises(error, match="num_vectors must be"):
            Trace([[0, 1]], num_vectors=num_vectors)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            Trace([[-1, 2]])

    def test_unique_vectors_sorted(self):
        trace = make_trace()
        np.testing.assert_array_equal(trace.unique_vectors(), [1, 2, 3, 4, 5])

    def test_flatten_preserves_order(self):
        trace = make_trace()
        np.testing.assert_array_equal(trace.flatten(), [1, 2, 3, 2, 4, 5])

    def test_getitem_slice_returns_trace(self):
        trace = make_trace()
        head = trace[:2]
        assert isinstance(head, Trace)
        assert len(head) == 2
        assert head.num_vectors == trace.num_vectors

    def test_equality(self):
        assert make_trace() == make_trace()
        assert make_trace() != Trace([[1]], num_vectors=10)

    def test_empty_trace(self):
        trace = Trace([], num_vectors=4)
        assert trace.num_lookups == 0
        assert trace.avg_lookups_per_query == pytest.approx(0.0)
        assert trace.flatten().size == 0
        assert trace.unique_vectors().size == 0


class TestTraceSplitting:
    def test_split_fraction(self):
        trace = make_trace()
        head, tail = trace.split(2 / 3)
        assert len(head) == 2 and len(tail) == 1
        assert head.num_vectors == tail.num_vectors == trace.num_vectors

    def test_split_bounds(self):
        trace = make_trace()
        head, tail = trace.split(0.0)
        assert len(head) == 0 and len(tail) == 3
        head, tail = trace.split(1.0)
        assert len(head) == 3 and len(tail) == 0

    def test_head(self):
        assert len(make_trace().head(1)) == 1

    @pytest.mark.parametrize("count", [True, 1.0, "1"])
    def test_head_rejects_a_non_integer_count(self, count):
        # ``head(True)`` used to return one query.
        with pytest.raises(TypeError, match="num_queries"):
            make_trace().head(count)


class TestDerivedTracesSkipRevalidation:
    """``split`` / ``head`` / slices wrap already-checked queries
    through ``Trace._trusted``; the result must be what validating them again
    would have built."""

    @staticmethod
    def assert_as_if_validated(derived, queries, num_vectors):
        validated = Trace(queries, num_vectors=num_vectors)
        assert derived == validated
        assert type(derived.num_vectors) is int
        for query in derived.queries:
            assert query.dtype == np.int64 and query.ndim == 1 and query.size

    @given(
        queries=st.lists(
            st.lists(st.integers(min_value=0, max_value=50), max_size=6), max_size=12
        ),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        cut=st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=50, deadline=None)
    def test_split_head_slice(self, queries, fraction, cut):
        trace = Trace(queries, num_vectors=51)
        kept = [q for q in queries if q]
        boundary = int(round(len(kept) * fraction))
        head, tail = trace.split(fraction)
        self.assert_as_if_validated(head, kept[:boundary], 51)
        self.assert_as_if_validated(tail, kept[boundary:], 51)
        self.assert_as_if_validated(trace.head(cut), kept[:cut], 51)
        self.assert_as_if_validated(trace[cut:], kept[cut:], 51)
        self.assert_as_if_validated(trace[::2], kept[::2], 51)

    def test_derived_traces_do_not_alias_the_source_list(self):
        trace = make_trace()
        head = trace.head(2)
        head.queries.append(np.array([9]))
        assert len(trace) == 3 and len(trace[:]) == 3

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([[-1, 2]], ValueError),
            ([[1, 10]], ValueError),
            ([[1.0, 2.0]], TypeError),
            ([[[1, 2], [3, 4]]], ValueError),
        ],
        ids=["negative", "out-of-range", "float", "2-d"],
    )
    def test_public_constructor_keeps_every_check(self, bad, error):
        with pytest.raises(error):
            Trace(bad, num_vectors=10)


class TestModelTrace:
    def make(self):
        return ModelTrace(
            {
                "a": Trace([[1, 2], [3]], num_vectors=10),
                "b": Trace([[0], [1], [2]], num_vectors=5),
            }
        )

    def test_total_lookups_and_shares(self):
        model = self.make()
        assert model.total_lookups == 6
        shares = model.lookup_shares()
        assert shares["a"] == pytest.approx(0.5)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_contains_and_getitem(self):
        model = self.make()
        assert "a" in model and "c" not in model
        assert model["b"].num_lookups == 3

    def test_split(self):
        heads, tails = self.make().split(0.5)
        assert len(heads["a"]) == 1 and len(tails["a"]) == 1


class TestRequestStream:
    def test_zips_ragged_tables(self):
        trace = ModelTrace(
            {
                "a": Trace([[0], [1], [2]], num_vectors=4),
                "b": Trace([[3, 2]], num_vectors=4),
            }
        )
        requests = list(trace.requests())
        assert len(requests) == 3
        assert set(requests[0]) == {"a", "b"}
        np.testing.assert_array_equal(requests[0]["b"], [3, 2])
        assert set(requests[1]) == {"a"}  # table b has run out of queries
        np.testing.assert_array_equal(requests[2]["a"], [2])

    def test_empty_trace(self):
        assert list(ModelTrace({}).requests()) == []

    def test_single_table_yields_its_queries(self):
        trace = Trace([[0, 1], [2], [3, 3]], num_vectors=4)
        requests = list(ModelTrace({"a": trace}).requests())
        assert [list(request) for request in requests] == [["a"]] * 3
        for request, query in zip(requests, trace.queries):
            assert request["a"] is query  # the trace's arrays, not copies

    def test_regrouping_requests_recovers_every_table(self):
        rng = np.random.default_rng(4)
        model = ModelTrace(
            {
                name: Trace(
                    [rng.integers(0, 50, size=int(rng.integers(1, 6))) for _ in range(count)],
                    num_vectors=50,
                )
                for name, count in (("a", 7), ("b", 3), ("c", 0), ("d", 5))
            }
        )
        regrouped = {name: [] for name in model.tables}
        for request in model.requests():
            assert list(request) == [name for name in model.tables if name in request]
            for name, ids in request.items():
                regrouped[name].append(ids)
        for name, trace in model.items():
            assert Trace(regrouped[name], num_vectors=50) == trace
