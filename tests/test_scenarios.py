"""Tests for the adversarial-workload subsystem (repro.scenarios).

Covers the scenario generators (seeded golden pins — every trace is a pure
function of its config), the live layout-swap machinery (a same-layout swap
is a counter-exact no-op; geometry mismatches refuse), the re-partitioning
lifecycle (drift breaks a stale SHP placement, retraining wins hit rate
back), and the config dataclasses' validation plus their repro-lint R4
registration.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig, ServingConfig
from repro.nvm.block import BlockLayout
from repro.partitioning.shp import _draw_levels
from repro.scenarios import (
    RepartitionConfig,
    RepartitionManager,
    ScenarioConfig,
    TraceLoaderConfig,
    generate_scenario_trace,
    run_workload_scenario,
)
from repro.scenarios.report import ScenarioReport
from repro.scenarios.lifecycle import layout_churn
from repro.scenarios.config import COMMUNITY_SIZE, FLASH_START_FRACTION
from repro.serving import simulate_serving
from repro.workloads.characterization import access_counts
from repro.workloads.trace import ModelTrace, Trace
from repro_lint.rules import CONFIG_CLASSES
from tests.conftest import golden, trace_digest


def small_scenario(kind, **overrides):
    params = dict(
        kind=kind,
        num_queries=60,
        num_vectors=256,
        avg_lookups_per_query=8.0,
        drift_epoch_queries=10,
        flash_crowd_ids=32,
        seed=5,
    )
    params.update(overrides)
    return ScenarioConfig(**params)


def scenario_store_config(num_vectors):
    # Placement-sensitive store: small DRAM cache, permissive admission.
    return BandanaConfig(
        total_cache_vectors=num_vectors // 8,
        tune_thresholds=False,
        default_threshold=2,
    )


def golden_scenario_config(kind, **overrides):
    """A size where drift rotates five times, the flash window diverts a few
    hundred lookups and the rank law has 2 048 entries."""
    return ScenarioConfig(
        kind=kind, num_queries=300, num_vectors=2048, drift_epoch_queries=50, seed=11,
        **overrides,
    )


def golden_scenario_digests():
    """Every arm's trace digest — drift, flash-crowd and the stationary arm
    (drift at rotation 0) — at :func:`golden_scenario_config` and at
    :func:`small_scenario`'s size, captured from the counter-keyed draws."""
    arms = {
        "drift": ("drift", {}),
        "flash-crowd": ("flash-crowd", {}),
        "stationary": ("drift", {"drift_rotation_per_epoch": 0.0}),
    }
    digests = {}
    for arm, (kind, overrides) in arms.items():
        for prefix, config in (("", golden_scenario_config), ("small ", small_scenario)):
            digests[prefix + arm] = trace_digest(generate_scenario_trace(config(kind, **overrides)))
    return digests


# ----------------------------------------------------------------- generators
class TestGenerators:
    def test_generated_traces_match_the_pinned_digests(self):
        golden("scenario_digests")

    def test_hot_ids_are_independent_of_shps_root_split(self):
        # SHPPartitioner(seed=s) draws its root split first from
        # default_rng(s).  The ranking was once that stream's permutation,
        # so a store built at the scenario's seed started SHP from a split
        # of the hot ids from the cold ones.  Now about half the hottest
        # ids fall on each side.
        for seed in range(5):
            config = ScenarioConfig(drift_rotation_per_epoch=0.0, seed=seed)
            counts = np.bincount(
                generate_scenario_trace(config).flatten(), minlength=config.num_vectors
            )
            hottest = np.argsort(-counts, kind="stable")[:256]
            levels = _draw_levels(config.num_vectors, 32, np.random.default_rng(seed))
            assert 0.35 < levels[0].side[hottest].mean() < 0.65, seed

    def test_regeneration_is_bit_identical(self):
        config = small_scenario("drift")
        first = generate_scenario_trace(config)
        second = generate_scenario_trace(config)
        for a, b in zip(first.queries, second.queries):
            np.testing.assert_array_equal(a, b)

    def test_dense_id_contract(self):
        for kind in ("drift", "flash-crowd"):
            trace = generate_scenario_trace(small_scenario(kind))
            ids = np.concatenate(trace.queries)
            assert ids.min() >= 0
            assert ids.max() < trace.num_vectors
            # Queries are de-duplicated (the engine's contract).
            for query in trace.queries:
                assert len(np.unique(query)) == query.size

    def test_stationary_control_has_no_rotation(self):
        moving = small_scenario("drift", drift_rotation_per_epoch=0.2)
        frozen = small_scenario("drift", drift_rotation_per_epoch=0.0)
        assert int(np.concatenate(generate_scenario_trace(moving).queries).sum()) != int(
            np.concatenate(generate_scenario_trace(frozen).queries).sum()
        )

    def test_flash_crowd_concentrates_on_cold_ids(self):
        config = small_scenario(
            "flash-crowd", flash_traffic_share=1.0, flash_duration_fraction=0.5
        )
        trace = generate_scenario_trace(config)
        # During the flash window with full diversion, lookups hit the crowd.
        flash_ids = np.concatenate(trace.queries[40:])
        control = generate_scenario_trace(
            dataclasses.replace(config, flash_traffic_share=0.0)
        )
        control_ids = np.concatenate(control.queries[40:])
        assert len(np.unique(flash_ids)) <= config.flash_crowd_ids
        assert len(np.unique(control_ids)) > config.flash_crowd_ids


# ------------------------------------------------------------------ swap_layout
class TestSwapLayout:
    def build(self, num_vectors=256, seed=9):
        trace = generate_scenario_trace(
            small_scenario("drift", num_vectors=num_vectors, seed=seed)
        )
        store = BandanaStore.build(
            ModelTrace({"t": trace}), scenario_store_config(num_vectors)
        )
        return store, trace

    def test_same_layout_swap_is_counter_exact_noop(self):
        store, trace = self.build()
        baseline, _ = self.build()
        mid = len(trace.queries) // 2
        for i, query in enumerate(trace.queries):
            store.lookup("t", query, gather=False)
            if i == mid:
                store.swap_layout("t", store.tables["t"].layout)
        for query in trace.queries:
            baseline.lookup("t", query, gather=False)
        assert (
            store.tables["t"].stats.counters()
            == baseline.tables["t"].stats.counters()
        )

    def test_new_layout_swap_keeps_dram_residency(self):
        # Prefetch admission off (absurd threshold) and a big cache: hits
        # come from LRU residency alone, which a re-layout must not discard.
        config = BandanaConfig(
            total_cache_vectors=128, tune_thresholds=False, default_threshold=10**6
        )
        trace = generate_scenario_trace(small_scenario("drift", seed=9))
        swapped = BandanaStore.build(ModelTrace({"t": trace}), config)
        unswapped = BandanaStore.build(ModelTrace({"t": trace}), config)
        reversed_order = BlockLayout(
            np.arange(255, -1, -1, dtype=np.int64), vectors_per_block=32
        )
        mid = len(trace.queries) // 2
        for i, query in enumerate(trace.queries):
            swapped.lookup("t", query, gather=False)
            unswapped.lookup("t", query, gather=False)
            if i == mid:
                assert swapped.tables["t"].stats.hits > 0
                swapped.swap_layout("t", reversed_order)
        assert swapped.tables["t"].layout is reversed_order
        assert swapped.tables["t"].stats.hits == unswapped.tables["t"].stats.hits

    def test_geometry_mismatch_refuses(self):
        store, _ = self.build()
        wrong_universe = BlockLayout.identity(128, 32)
        with pytest.raises(ValueError, match="geometry"):
            store.swap_layout("t", wrong_universe)
        wrong_blocking = BlockLayout.identity(256, 16)
        with pytest.raises(ValueError, match="geometry"):
            store.swap_layout("t", wrong_blocking)

    def test_layout_churn(self):
        identity = BlockLayout.identity(64, 8)
        assert layout_churn(identity, identity) == pytest.approx(0.0)
        reversed_order = BlockLayout(
            np.arange(63, -1, -1, dtype=np.int64), vectors_per_block=8
        )
        assert layout_churn(identity, reversed_order) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            layout_churn(identity, BlockLayout.identity(32, 8))


# -------------------------------------------------------------------- lifecycle
class TestLifecycle:
    def drifting_trace(self, num_queries=900, num_vectors=1024):
        return generate_scenario_trace(
            ScenarioConfig(
                kind="drift",
                num_queries=num_queries,
                num_vectors=num_vectors,
                avg_lookups_per_query=16.0,
                drift_rotation_per_epoch=0.03,
                drift_epoch_queries=num_queries // 18,
                drift_start_fraction=1.0 / 3.0,
                seed=7,
            )
        )

    def test_drift_breaks_shp_and_lifecycle_recovers(self):
        trace = self.drifting_trace()
        common = dict(
            config=scenario_store_config(1024),
            train_fraction=1.0 / 3.0,
            window_queries=50,
            warmup_queries=100,
        )
        stale = run_workload_scenario(trace, **common)
        repaired = run_workload_scenario(
            trace,
            repartition=RepartitionConfig(
                cadence_queries=150,
                window_queries=300,
                min_window_queries=150,
                shp_iterations=6,
            ),
            **common,
        )
        # The stale placement decays; the lifecycle wins a real share back.
        assert stale.hit_rate_decay > 0.05
        assert repaired.late_hit_rate > stale.late_hit_rate
        assert repaired.repartition["retrains"] >= 2
        assert len(repaired.repartition["swaps"]) == repaired.repartition["retrains"]
        # Partition age saw-tooths under the lifecycle, grows monotonically
        # without one.
        assert max(repaired.window_partition_age) < max(stale.window_partition_age)
        assert stale.window_partition_age == sorted(stale.window_partition_age)

    def test_swap_lands_at_the_trigger(self):
        trace = self.drifting_trace(num_queries=450)
        store = BandanaStore.build(
            ModelTrace({"t": trace}), scenario_store_config(1024)
        )
        manager = RepartitionManager(
            store,
            "t",
            RepartitionConfig(
                cadence_queries=100,
                window_queries=200,
                min_window_queries=50,
                shp_iterations=2,
            ),
        )
        swap_indices = []
        for i, query in enumerate(trace.queries):
            store.lookup("t", query, gather=False)
            if manager.observe(query):
                swap_indices.append(i)
        assert manager.retrains >= 1 and len(swap_indices) == manager.retrains
        # Retrains trigger at multiples of the cadence, and each placement
        # is live before the next query.
        assert all((i + 1) % 100 == 0 for i in swap_indices)

    def test_min_window_gate(self):
        trace = self.drifting_trace(num_queries=450)
        store = BandanaStore.build(
            ModelTrace({"t": trace}), scenario_store_config(1024)
        )
        manager = RepartitionManager(
            store,
            "t",
            RepartitionConfig(
                cadence_queries=100,
                window_queries=400,
                min_window_queries=350,
                shp_iterations=2,
            ),
        )
        for query in trace.queries[:300]:
            store.lookup("t", query, gather=False)
            manager.observe(query)
        assert manager.retrains == 0  # window never reached the minimum

    def test_window_equal_to_the_minimum_retrains(self):
        # The largest minimum the trailing window can reach: a full window
        # must still trigger retrains at every cadence point.
        trace = self.drifting_trace(num_queries=450)
        store = BandanaStore.build(
            ModelTrace({"t": trace}), scenario_store_config(1024)
        )
        manager = RepartitionManager(
            store,
            "t",
            RepartitionConfig(
                cadence_queries=100,
                window_queries=64,
                min_window_queries=64,
                shp_iterations=2,
            ),
        )
        for query in trace.queries:
            store.lookup("t", query, gather=False)
            manager.observe(query)
        assert manager.retrains == 4
        assert manager.swaps == [100, 200, 300, 400]

    @pytest.mark.parametrize(
        "hostile, error",
        [([1.7, 2.2], TypeError), ([300], IndexError), ([5, -1], IndexError), ([[1, 2]], ValueError)],
    )
    def test_observe_rejects_hostile_ids_and_records_nothing(self, hostile, error):
        # Each used to be recorded: floats truncated, and an id outside the
        # table made every due retrain raise until it left the window.
        trace = generate_scenario_trace(small_scenario("drift"))
        store = BandanaStore.build(ModelTrace({"t": trace}), scenario_store_config(256))
        manager = RepartitionManager(
            store,
            "t",
            RepartitionConfig(
                cadence_queries=2, window_queries=4, min_window_queries=1, shp_iterations=2
            ),
        )
        manager.observe(trace.queries[0])
        window = list(manager._window)
        with pytest.raises(error, match="vector.ids"):
            manager.observe(hostile)
        assert manager._queries_seen == 1
        assert len(manager._window) == 1 and manager._window[0] is window[0]
        assert manager.retrains == 0
        # The next valid query is the second one, so the due retrain runs.
        assert manager.observe(trace.queries[1])
        assert manager.retrains == 1 and manager.swaps == [2]

    def test_swap_refreshes_admission_counts_from_the_window(self):
        trace = self.drifting_trace(num_queries=450)
        store = BandanaStore.build(
            ModelTrace({"t": trace}), scenario_store_config(1024)
        )
        state = store.tables["t"]
        original_total = int(state.access_counts.sum())
        manager = RepartitionManager(
            store,
            "t",
            RepartitionConfig(
                cadence_queries=100,
                window_queries=100,
                min_window_queries=100,
                shp_iterations=2,
            ),
        )
        for query in trace.queries[:100]:
            store.lookup("t", query, gather=False)
            manager.observe(query)
        assert manager.swaps == [100]
        window = Trace(list(trace.queries[:100]), num_vectors=1024)
        window_counts = access_counts(window).astype(np.float64)
        expected = np.round(
            window_counts * original_total / window_counts.sum()
        ).astype(np.int64)
        np.testing.assert_array_equal(state.access_counts, expected)
        # The admission policy reads the refreshed array, not a stale copy.
        np.testing.assert_array_equal(state.policy.access_counts, expected)


# ---------------------------------------------------------------------- runner
class TestRunner:
    def test_report_shape_and_series(self):
        trace = generate_scenario_trace(
            small_scenario("drift", num_queries=120, num_vectors=512)
        )
        report = run_workload_scenario(
            trace,
            config=scenario_store_config(512),
            train_fraction=0.5,
            window_queries=10,
        )
        assert isinstance(report, ScenarioReport)
        assert report.num_train_queries == 60
        assert report.num_eval_queries == 60
        assert len(report.window_hit_rates) == 6
        assert len(report.window_partition_age) == 6
        assert 0.0 <= report.overall_hit_rate <= 1.0
        payload = report.to_dict()
        assert payload["window_hit_rates"] == [
            round(v, 6) for v in report.window_hit_rates
        ]

    def test_invalid_fractions_refuse(self):
        trace = generate_scenario_trace(small_scenario("drift"))
        with pytest.raises(ValueError):
            run_workload_scenario(trace, train_fraction=0.0)
        with pytest.raises(ValueError):
            run_workload_scenario(trace, train_fraction=1.0)


# ------------------------------------------------------- single-table serving
class TestSingleTableServingStats:
    def test_aggregate_stats_returns_a_snapshot(self):
        # Regression: aggregate_stats on a one-table store used to return
        # the live ReplayStats object itself, so before/after deltas were
        # identically zero and simulate_serving reported hit_rate == 0.
        trace = generate_scenario_trace(small_scenario("drift", num_queries=200))
        train, evaluation = trace.split(0.5)
        store = BandanaStore.build(
            ModelTrace({"only": train}), scenario_store_config(256)
        )
        before = store.aggregate_stats()
        report = simulate_serving(
            store,
            ModelTrace({"only": evaluation}),
            ServingConfig(arrival_rate_rps=2000.0, seed=3),
            num_requests=60,
        )
        assert before.lookups == 0  # the snapshot did not advance with the store
        assert report.hit_rate > 0.0


# ---------------------------------------------------------------------- config
class TestConfigValidation:
    def test_registered_with_repro_lint(self):
        assert {"ScenarioConfig", "TraceLoaderConfig", "RepartitionConfig"} <= set(
            CONFIG_CLASSES
        )

    def test_scenario_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="meteor-strike")
        with pytest.raises(ValueError, match="num_vectors"):
            ScenarioConfig(num_vectors=COMMUNITY_SIZE - 1)
        with pytest.raises(ValueError, match="flash_duration_fraction"):
            ScenarioConfig(flash_duration_fraction=1.0 - FLASH_START_FRACTION + 0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(flash_crowd_ids=10_000, num_vectors=4096)
        with pytest.raises(ValueError):
            ScenarioConfig(kind="diurnal")

    def test_scenario_config_accepts_the_constant_boundaries(self):
        # One community spans the whole universe; the crowd runs to the end.
        config = ScenarioConfig(
            kind="flash-crowd",
            num_vectors=COMMUNITY_SIZE,
            flash_crowd_ids=1,
            flash_duration_fraction=1.0 - FLASH_START_FRACTION,
        )
        assert generate_scenario_trace(config).num_vectors == COMMUNITY_SIZE

    def test_loader_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TraceLoaderConfig(path="")
        with pytest.raises(ValueError):
            TraceLoaderConfig(path="x.csv", format="parquet")

    def test_repartition_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RepartitionConfig(cadence_queries=0)
        with pytest.raises(ValueError):
            RepartitionConfig(shp_iterations=0)

    def test_min_window_above_window_raises(self):
        # The trailing window holds at most window_queries queries, so a
        # larger minimum used to disable every retrain without a word.
        with pytest.raises(
            ValueError, match=r"min_window_queries \(64\).*window_queries \(63\)"
        ):
            RepartitionConfig(window_queries=63)
        assert RepartitionConfig(window_queries=64).min_window_queries == 64
