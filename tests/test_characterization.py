"""Tests for the workload-characterisation analysis (paper Table 1 / Figure 4)."""

import numpy as np
import pytest

from repro.workloads.characterization import (
    access_counts,
    access_histogram,
    characterize_model,
    characterize_table,
)
from repro.workloads.trace import ModelTrace, Trace


def simple_trace():
    return Trace([[0, 1], [1, 2], [1]], num_vectors=5)


class TestAccessCounts:
    def test_counts(self):
        counts = access_counts(simple_trace())
        assert counts.tolist() == [1, 3, 1, 0, 0]

    def test_empty_trace(self):
        counts = access_counts(Trace([], num_vectors=3))
        assert counts.tolist() == [0, 0, 0]

    def test_counts_sum_to_lookups(self, eval_trace):
        assert access_counts(eval_trace).sum() == eval_trace.num_lookups


def compulsory_miss_rate(trace):
    return characterize_table("t", trace).compulsory_miss_rate


class TestCompulsoryMissRate:
    def test_simple(self):
        assert compulsory_miss_rate(simple_trace()) == pytest.approx(3 / 5)

    def test_empty(self):
        assert compulsory_miss_rate(Trace([], num_vectors=3)) == pytest.approx(0.0)

    def test_all_unique(self):
        trace = Trace([[0], [1], [2]], num_vectors=3)
        assert compulsory_miss_rate(trace) == pytest.approx(1.0)


class TestAccessHistogram:
    def test_histogram_counts_accessed_vectors_only(self):
        edges, hist = access_histogram(simple_trace(), num_bins=3)
        assert hist.sum() == 3  # three distinct vectors were accessed
        assert len(edges) == 4

    def test_empty_trace(self):
        edges, hist = access_histogram(Trace([], num_vectors=3), num_bins=5)
        assert hist.sum() == 0

    @pytest.mark.parametrize("num_bins", [0, -3])
    def test_invalid_bins(self, num_bins):
        with pytest.raises(ValueError, match="num_bins"):
            access_histogram(simple_trace(), num_bins=num_bins)

    @pytest.mark.parametrize("num_bins", [True, 2.5, np.float64(3.0), "3"])
    def test_non_integer_bins_rejected(self, num_bins):
        # True used to give a one-bin histogram; the others raised NumPy's or
        # str's TypeError without naming the argument.
        with pytest.raises(TypeError, match="num_bins"):
            access_histogram(simple_trace(), num_bins=num_bins)

    def test_numpy_integer_bins_accepted(self):
        edges, hist = access_histogram(simple_trace(), num_bins=np.int64(3))
        assert len(edges) == 4 and hist.sum() == 3

    def test_skewed_trace_has_heavy_tail(self, eval_trace):
        edges, hist = access_histogram(eval_trace, num_bins=20)
        # Most vectors are accessed rarely (first bin dominates), a hallmark of
        # the paper's Figure 4.
        assert hist[0] == hist.max()


class TestCharacterize:
    def test_characterize_table_row(self):
        row = characterize_table("t", simple_trace(), lookup_share=0.4)
        assert row.num_queries == 3
        assert row.num_lookups == 5
        assert row.unique_vectors_accessed == 3
        assert row.compulsory_miss_rate == pytest.approx(0.6)

    def test_characterize_model_shares(self):
        model = ModelTrace(
            {"a": simple_trace(), "b": Trace([[0]], num_vectors=2)}
        )
        rows = characterize_model(model)
        assert rows["a"].lookup_share == pytest.approx(5 / 6)
        assert rows["b"].lookup_share == pytest.approx(1 / 6)
        shares = model.lookup_shares()
        assert all(rows[name].lookup_share == shares[name] for name in shares)

    @pytest.mark.parametrize(
        "share, error",
        [
            (float("nan"), ValueError),
            (-1.0, ValueError),
            (2.0, ValueError),
            (True, TypeError),
        ],
    )
    def test_lookup_share_outside_the_unit_interval_rejected(self, share, error):
        # Each used to be written into the Table 1 row as given.
        with pytest.raises(error, match="lookup_share"):
            characterize_table("t", Trace([[0, 1], [2]], num_vectors=3), lookup_share=share)

    @pytest.mark.parametrize("share", [0.0, 1.0, np.float64(0.25)])
    def test_lookup_share_bounds_accepted(self, share):
        row = characterize_table("t", simple_trace(), lookup_share=share)
        assert row.lookup_share == share
