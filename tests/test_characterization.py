"""Tests for the workload-characterisation analysis (paper Table 1 / Figure 4)."""

import numpy as np
import pytest

from repro.workloads.characterization import (
    access_counts,
    access_histogram,
    characterize_model,
    characterize_table,
    compulsory_miss_rate,
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

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            access_histogram(simple_trace(), num_bins=0)

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
