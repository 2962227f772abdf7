"""Tests for the replay runners, experiment sweeps and report formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.policies import (
    AccessThresholdPolicy,
    CacheAllBlockPolicy,
    NoPrefetchPolicy,
)
from repro.nvm.block import BlockLayout
from repro.simulation.experiment import ExperimentRecord, ExperimentSweep
from repro.simulation.report import format_table
from repro.simulation.runner import (
    TableSimulationResult,
    simulate_table,
    unlimited_cache_bandwidth_increase,
)
from repro.workloads.characterization import access_counts
from repro.workloads.trace import Trace


def unlimited_replay_reference(trace, layout):
    """The unlimited-cache study as two engine replays: whole-block prefetch
    against no prefetch, neither cache ever evicting."""
    return simulate_table(trace, layout, CacheAllBlockPolicy(), cache_size=None).bandwidth_increase


@st.composite
def unlimited_cases(draw):
    """A random layout (1-64 vectors per block, last block often partial) and a
    trace over a prefix of its ids (``trace.num_vectors`` <= layout size),
    possibly empty."""
    vectors_per_block = draw(st.integers(min_value=1, max_value=64))
    num_vectors = draw(st.integers(min_value=1, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    layout = BlockLayout(rng.permutation(num_vectors), vectors_per_block)
    trace_vectors = draw(st.integers(min_value=1, max_value=num_vectors))
    num_queries = draw(st.integers(min_value=0, max_value=40))
    queries = [
        rng.integers(0, trace_vectors, size=int(rng.integers(1, 30)))
        for _ in range(num_queries)
    ]
    return Trace(queries, num_vectors=trace_vectors), layout


class TestSimulateTable:
    def test_baseline_included_by_default(self, eval_trace, shp_layout):
        result = simulate_table(eval_trace, shp_layout, CacheAllBlockPolicy(), cache_size=None)
        assert result.baseline_stats is not None
        assert result.stats.lookups == eval_trace.num_lookups

    def test_no_baseline(self, eval_trace, shp_layout):
        # simulate_store(include_baseline=False) leaves the baseline out.
        stats = simulate_table(eval_trace, shp_layout, NoPrefetchPolicy(), cache_size=100).stats
        result = TableSimulationResult(stats=stats)
        assert result.baseline_stats is None
        assert result.bandwidth_increase == pytest.approx(0.0)

    def test_shp_unlimited_cache_beats_identity(self, small_spec, eval_trace, shp_layout):
        """Reproduces the core of Figure 9: SHP placement increases effective
        bandwidth over the original layout under an unlimited cache."""
        identity = BlockLayout.identity(small_spec.num_vectors, 32)
        gain_shp = unlimited_cache_bandwidth_increase(eval_trace, shp_layout)
        gain_identity = unlimited_cache_bandwidth_increase(eval_trace, identity)
        assert gain_shp > gain_identity > 0

    def test_threshold_policy_beats_cache_all_at_small_cache(
        self, train_trace, eval_trace, shp_layout
    ):
        """Reproduces the core of Figures 10 and 12: with a limited cache,
        admitting every prefetched vector is much worse than filtering by the
        training-trace access count."""
        counts = access_counts(train_trace)
        working_set = eval_trace.unique_vectors().size
        cache_size = max(32, working_set // 4)
        cache_all = simulate_table(
            eval_trace, shp_layout, CacheAllBlockPolicy(), cache_size=cache_size
        )
        filtered = simulate_table(
            eval_trace,
            shp_layout,
            AccessThresholdPolicy(counts, threshold=float(np.percentile(counts[counts > 0], 90))),
            cache_size=cache_size,
        )
        assert cache_all.bandwidth_increase < 0
        assert filtered.bandwidth_increase > cache_all.bandwidth_increase


class TestUnlimitedCacheClosedForm:
    """Distinct ids ÷ distinct blocks − 1 ≡ the two engine replays it replaced."""

    @given(case=unlimited_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_engine_replays(self, case):
        trace, layout = case
        assert unlimited_cache_bandwidth_increase(trace, layout) == unlimited_replay_reference(
            trace, layout
        )

    def test_matches_on_the_fixture_layouts(self, small_spec, eval_trace, shp_layout):
        identity = BlockLayout.identity(small_spec.num_vectors, 32)
        for layout in (shp_layout, identity):
            assert unlimited_cache_bandwidth_increase(
                eval_trace, layout
            ) == unlimited_replay_reference(eval_trace, layout)

    def test_counts_distinct_ids_over_distinct_blocks(self):
        layout = BlockLayout(np.array([4, 0, 3, 1, 2]), 2)  # blocks {4,0} {3,1} {2}
        trace = Trace([[0, 4, 0], [1, 2], [4]], num_vectors=5)
        # 4 distinct ids in 3 distinct blocks.
        assert unlimited_cache_bandwidth_increase(trace, layout) == pytest.approx(4 / 3 - 1)

    def test_empty_trace_gains_nothing(self):
        layout = BlockLayout.identity(8, 4)
        trace = Trace([], num_vectors=8)
        assert unlimited_cache_bandwidth_increase(trace, layout) == unlimited_replay_reference(
            trace, layout
        )
        assert unlimited_cache_bandwidth_increase(trace, layout) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "trace",
        [
            Trace([[0, 9]], num_vectors=10),  # beyond an 8-vector layout
            Trace._trusted([np.array([-1, 2])], 8),  # negative
        ],
        ids=["out-of-range", "negative"],
    )
    def test_ids_outside_the_layout_raise_the_engine_error(self, trace):
        layout = BlockLayout.identity(8, 4)
        with pytest.raises(IndexError, match=r"vector ids must be in \[0, 8\)"):
            unlimited_replay_reference(trace, layout)
        with pytest.raises(IndexError, match=r"vector ids must be in \[0, 8\)"):
            unlimited_cache_bandwidth_increase(trace, layout)

    def test_non_integer_ids_raise_the_engine_error(self):
        trace = Trace._trusted([np.array([1.5, 2.0])], 8)
        layout = BlockLayout.identity(8, 4)
        with pytest.raises(TypeError, match="integers"):
            unlimited_replay_reference(trace, layout)
        with pytest.raises(TypeError, match="integers"):
            unlimited_cache_bandwidth_increase(trace, layout)


class TestExperimentSweep:
    def test_add_and_column(self):
        sweep = ExperimentSweep("demo", "toy sweep")
        for x in (1, 2, 3):
            sweep.add({"x": x}, {"y": float(x * 2)})
        assert sweep.column("y") == [2.0, 4.0, 6.0]

    def test_to_table_contains_values(self):
        sweep = ExperimentSweep("demo", "description")
        sweep.add({"x": 1}, {"y": 0.1234})
        text = sweep.to_table()
        assert "demo" in text and "x" in text and "0.123" in text

    def test_empty_sweep(self):
        assert "no records" in ExperimentSweep("empty").to_table()

    def test_record_is_frozen_copy(self):
        params = {"x": 1}
        sweep = ExperimentSweep("demo")
        record = sweep.add(params, {"y": 1.0})
        params["x"] = 99
        assert record.parameters["x"] == 1
        assert isinstance(record, ExperimentRecord)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned widths

    def test_format_table_mismatched_row(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
