"""Tests for the miniature-cache threshold tuner (paper Table 2 / Figure 14)."""

import pytest

from repro.caching.miniature import (
    MIN_MINIATURE_BLOCKS,
    MiniatureCacheTuner,
    ThresholdSelection,
)
from repro.workloads.characterization import access_counts


class TestMiniatureCacheTuner:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MiniatureCacheTuner((0, 50), sampling_rate=0.0)
        with pytest.raises(ValueError):
            MiniatureCacheTuner((0, 50), sampling_rate=1.5)
        with pytest.raises(ValueError):
            MiniatureCacheTuner(thresholds=[])

    @pytest.mark.parametrize(
        "element, error",
        [(float("nan"), ValueError), (-1, ValueError), (float("inf"), ValueError), (True, TypeError)],
        ids=["nan", "negative", "inf", "bool"],
    )
    def test_grid_is_checked_at_construction(self, element, error):
        # Each used to construct: the first three raised only inside
        # select_threshold, after sampling, naming ``threshold``; ``True``
        # tuned silently at 1.0.
        with pytest.raises(error, match=r"thresholds\[1\]"):
            MiniatureCacheTuner(thresholds=(0, element))

    def test_selection_structure(self, train_trace, eval_trace, shp_layout):
        counts = access_counts(train_trace)
        tuner = MiniatureCacheTuner(sampling_rate=0.2, seed=0, thresholds=(0, 50, 200))
        selection = tuner.select_threshold(eval_trace, shp_layout, counts, cache_size=400)
        assert isinstance(selection, ThresholdSelection)
        assert selection.threshold in (0, 50, 200)
        assert set(selection.gains) == {0, 50, 200}
        # 0.2 of 400 vectors is under 8 blocks of 32: the floor sets the rate.
        assert selection.sampling_rate == MIN_MINIATURE_BLOCKS * 32 / 400
        assert selection.miniature_cache_size == int(round(400 * selection.sampling_rate))
        assert selection.baseline_stats is not None

    def test_rate_above_the_floor_is_kept(self, train_trace, eval_trace, shp_layout):
        counts = access_counts(train_trace)
        tuner = MiniatureCacheTuner(sampling_rate=0.5, seed=0, thresholds=(0, 50))
        selection = tuner.select_threshold(eval_trace, shp_layout, counts, cache_size=1024)
        assert selection.sampling_rate == 0.5  # repro-lint: disable=R5
        assert selection.miniature_cache_size == 512

    @pytest.mark.parametrize("cache_size", [300, 800, 2000])
    def test_miniature_cache_holds_at_least_the_floor(
        self, train_trace, eval_trace, shp_layout, cache_size
    ):
        """However small the configured rate, the miniature cache keeps
        ``MIN_MINIATURE_BLOCKS`` whole blocks (or the real cache, if smaller)."""
        counts = access_counts(train_trace)
        tuner = MiniatureCacheTuner(sampling_rate=0.001, thresholds=(0, 50))
        selection = tuner.select_threshold(eval_trace, shp_layout, counts, cache_size)
        floor_vectors = MIN_MINIATURE_BLOCKS * shp_layout.vectors_per_block
        assert selection.sampling_rate == min(1.0, floor_vectors / cache_size)
        assert selection.miniature_cache_size == min(cache_size, floor_vectors)

    @pytest.mark.parametrize("cache_size", [1, 100, 256])
    def test_floored_to_rate_one_is_the_full_cache(
        self, train_trace, eval_trace, shp_layout, cache_size
    ):
        """A cache of at most ``MIN_MINIATURE_BLOCKS`` blocks is simulated whole:
        any configured rate then decides exactly as the full-cache oracle."""
        counts = access_counts(train_trace)
        thresholds = (0, 50, 200)
        full = MiniatureCacheTuner(sampling_rate=1.0, thresholds=thresholds)
        floored = MiniatureCacheTuner(sampling_rate=0.01, seed=5, thresholds=thresholds)
        expected = full.select_threshold(eval_trace, shp_layout, counts, cache_size)
        selection = floored.select_threshold(eval_trace, shp_layout, counts, cache_size)
        assert selection.sampling_rate == 1.0  # repro-lint: disable=R5
        assert selection == expected

    def test_full_rate_uses_real_cache_size(self, train_trace, eval_trace, shp_layout):
        counts = access_counts(train_trace)
        tuner = MiniatureCacheTuner(sampling_rate=1.0, thresholds=(0, 100))
        selection = tuner.select_threshold(eval_trace, shp_layout, counts, cache_size=300)
        assert selection.miniature_cache_size == 300

    def test_picks_best_gain(self, train_trace, eval_trace, shp_layout):
        counts = access_counts(train_trace)
        tuner = MiniatureCacheTuner(sampling_rate=0.3, seed=1, thresholds=(0, 50, 100, 400))
        selection = tuner.select_threshold(eval_trace, shp_layout, counts, cache_size=300)
        assert selection.gains[selection.threshold] == pytest.approx(
            max(selection.gains.values())
        )

    def test_sampled_selection_close_to_full(self, train_trace, eval_trace, shp_layout):
        """The miniature simulation should pick a threshold whose *full-cache*
        gain is close to the best full-cache gain (the paper's Table 2 claim)."""
        counts = access_counts(train_trace)
        thresholds = (0, 50, 100, 400)
        oracle = MiniatureCacheTuner(sampling_rate=1.0, thresholds=thresholds)
        sampled = MiniatureCacheTuner(sampling_rate=0.25, seed=3, thresholds=thresholds)
        cache_size = 400
        full = oracle.select_threshold(eval_trace, shp_layout, counts, cache_size)
        mini = sampled.select_threshold(eval_trace, shp_layout, counts, cache_size)
        best_gain = max(full.gains.values())
        chosen_gain_at_full = full.gains[mini.threshold]
        # Allow a modest degradation versus the oracle's best threshold.
        assert chosen_gain_at_full >= best_gain - 0.35

    def test_invalid_cache_size(self, train_trace, eval_trace, shp_layout):
        counts = access_counts(train_trace)
        tuner = MiniatureCacheTuner((0, 50), sampling_rate=0.5)
        with pytest.raises(ValueError):
            tuner.select_threshold(eval_trace, shp_layout, counts, cache_size=0)
