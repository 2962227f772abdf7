"""Tests for the DRAM-budget allocation across tables."""

import numpy as np
import pytest

from repro.caching.allocation import allocate_dram_budget
from repro.caching.stack_distance import HitRateCurve


def make_curve(max_hit_rate: float, saturation: int, total_lookups: int) -> HitRateCurve:
    sizes = np.array([0, saturation // 2, saturation, saturation * 4])
    rates = np.array([0.0, 0.7 * max_hit_rate, max_hit_rate, max_hit_rate])
    return HitRateCurve(sizes, rates, total_lookups=total_lookups)


class TestAllocateDramBudget:
    def test_budget_respected(self):
        curves = {
            "a": make_curve(0.8, 1000, 100_000),
            "b": make_curve(0.5, 1000, 50_000),
        }
        allocation = allocate_dram_budget(curves, total_vectors=1500, chunk_vectors=100)
        assert sum(allocation.values()) <= 1500
        assert set(allocation) == {"a", "b"}

    def test_hotter_table_gets_more(self):
        # Table "hot" serves 10x the lookups with the same curve shape, so the
        # greedy allocation must favour it.
        curves = {
            "hot": make_curve(0.8, 1000, 1_000_000),
            "cold": make_curve(0.8, 1000, 100_000),
        }
        allocation = allocate_dram_budget(curves, total_vectors=1200, chunk_vectors=50)
        assert allocation["hot"] > allocation["cold"]

    def test_saturated_curves_spread_remainder(self):
        curves = {"a": make_curve(0.0, 10, 0), "b": make_curve(0.0, 10, 0)}
        allocation = allocate_dram_budget(curves, total_vectors=100, chunk_vectors=10)
        assert sum(allocation.values()) <= 100

    def test_empty_curves_rejected(self):
        with pytest.raises(ValueError):
            allocate_dram_budget({}, total_vectors=10)

    @pytest.mark.parametrize("budget", [10.5, True, "10", np.float64(10.0)])
    def test_non_integer_budget_rejected(self, budget):
        # 10.5 used to hand out a 9.5-vector cache.
        curves = {"a": make_curve(0.5, 10, 100)}
        with pytest.raises(TypeError, match="total_vectors"):
            allocate_dram_budget(curves, budget)

    @pytest.mark.parametrize("budget", [0, -10])
    def test_empty_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="total_vectors"):
            allocate_dram_budget({"a": make_curve(0.5, 10, 100)}, budget)

    @pytest.mark.parametrize(
        "keyword,value,error",
        [
            ("chunk_vectors", 2.5, TypeError),
            ("chunk_vectors", 0, ValueError),
        ],
    )
    def test_non_integer_chunk_rejected(self, keyword, value, error):
        curves = {"a": make_curve(0.5, 10, 100), "b": make_curve(0.4, 10, 100)}
        with pytest.raises(error, match=keyword):
            allocate_dram_budget(curves, 10, **{keyword: value})

    def test_whole_budget_is_allocated_in_integers(self):
        curves = {"a": make_curve(0.9, 8, 1000), "b": make_curve(0.8, 8, 1000)}
        allocation = allocate_dram_budget(curves, np.int64(10))
        assert sum(allocation.values()) == 10
        assert all(type(vectors) is int for vectors in allocation.values())

    def test_matches_exhaustive_two_table_optimum(self):
        """Greedy allocation on convex curves should match brute force."""
        curves = {
            "a": HitRateCurve(np.array([0, 100, 200, 400]), np.array([0, 0.5, 0.7, 0.8]), 10_000),
            "b": HitRateCurve(np.array([0, 100, 200, 400]), np.array([0, 0.3, 0.5, 0.6]), 20_000),
        }
        budget, chunk = 400, 50
        allocation = allocate_dram_budget(curves, total_vectors=budget, chunk_vectors=chunk)
        greedy_hits = sum(curves[n].hits_at(v) for n, v in allocation.items())
        best_hits = max(
            curves["a"].hits_at(x) + curves["b"].hits_at(budget - x)
            for x in range(0, budget + 1, chunk)
        )
        assert greedy_hits >= best_hits - 1e-6
