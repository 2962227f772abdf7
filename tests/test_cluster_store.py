"""Robustness behaviour of the fault-injected cluster store.

These are the graceful-degradation contracts: replication survives a node
crash with zero failed requests, an unreplicated crash degrades (but never
wedges) the stream, slow nodes trigger hedges and breaker ejections, flaky
links are retried, overload sheds instead of queueing unboundedly, and
recovered nodes restart cold.  Every run is a pure function of
(trace, configs, schedule, seed) — pinned by the determinism test.
"""

import os
import sys

if __package__ in (None, ""):  # direct script run (golden regeneration)
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
    )

import numpy as np
import pytest

from test_interleaved_equivalence import build_store

from repro.cluster import (
    ClusterStore,
    DegradedLink,
    FaultSchedule,
    NodeCrash,
    SlowNode,
    run_scenario,
    sweep_scenarios,
)
from repro.core.config import ClusterConfig, ServingConfig

#: Scenario window tuned to the ~0.05 s makespan of the seed traces
#: (106 requests at the default 2000 rps).
WINDOW = dict(start_s=0.005, duration_s=0.03)


def run(seed, scenario, cluster_config, overrides=WINDOW, **kwargs):
    store, trace = build_store(seed)
    return run_scenario(
        store,
        trace,
        scenario=scenario,
        cluster_config=cluster_config,
        scenario_overrides=overrides,
        **kwargs,
    )


class TestReplicationSurvivesCrash:
    def test_r2_single_crash_zero_failed_requests(self):
        # The acceptance criterion: with R=2, one crashed node costs
        # latency (timeouts + retries) but zero availability.
        report = run(1, "crash_recover", ClusterConfig(num_nodes=4, replication=2))
        assert report.availability == pytest.approx(1.0)
        assert report.counters.requests_degraded == 0
        assert report.counters.timeouts > 0
        assert report.counters.retries > 0

    def test_crash_is_visible_in_tail_latency(self):
        config = ClusterConfig(num_nodes=4, replication=2)
        healthy = run(1, "none", config)
        crashed = run(1, "crash_recover", config)
        assert crashed.latency.p999_us > healthy.latency.p999_us

    def test_r1_crash_degrades_but_never_wedges(self):
        # Unreplicated, a crashed node's shards cannot be served: those
        # requests are degraded — but every request still completes.
        report = run(1, "crash_recover", ClusterConfig(num_nodes=4, replication=1))
        assert report.counters.requests_degraded > 0
        assert 0.0 < report.availability < 1.0
        assert report.num_requests == report.counters.requests_total

    def test_cold_restart_after_recovery(self):
        config = ClusterConfig(num_nodes=4, replication=2, breaker_cooloff_s=0.004)
        report = run(
            1,
            "crash_recover",
            config,
            overrides=dict(start_s=0.002, duration_s=0.01),
        )
        assert report.counters.cold_restarts >= 1
        assert report.availability == pytest.approx(1.0)


class TestSlowNodesAndHedging:
    def test_slow_node_triggers_hedges(self):
        report = run(1, "slow_node", ClusterConfig(num_nodes=4, replication=2))
        assert report.counters.hedges_launched > 0
        assert report.counters.hedges_won > 0
        assert report.availability == pytest.approx(1.0)

    def test_hedging_can_be_disabled(self):
        report = run(
            1,
            "slow_node",
            ClusterConfig(num_nodes=4, replication=2, hedge_enabled=False),
        )
        assert report.counters.hedges_launched == 0

    def test_breaker_ejects_persistently_slow_node(self):
        store, trace = build_store(1)
        faults = FaultSchedule(
            [SlowNode(node=0, start_s=0.0, end_s=10.0, multiplier=200.0)]
        )
        config = ClusterConfig(
            num_nodes=4,
            replication=2,
            breaker_slow_threshold_us=2000.0,
            breaker_failure_threshold=3,
        )
        report = run_scenario(store, trace, scenario=faults, cluster_config=config)
        assert report.counters.breaker_ejections > 0
        assert report.counters.breaker_skips > 0
        assert report.availability == pytest.approx(1.0)


class TestFlakyLinks:
    def test_losses_are_retried(self):
        report = run(
            1,
            "flaky_link",
            ClusterConfig(num_nodes=4, replication=2),
            overrides=dict(start_s=0.005, duration_s=0.03, loss_prob=0.2),
        )
        assert report.counters.link_losses > 0
        assert report.counters.retries >= report.counters.link_losses
        assert report.availability == pytest.approx(1.0)

    def test_loss_draws_are_seeded(self):
        config = ClusterConfig(num_nodes=4, replication=2, seed=7)
        a = run(1, "flaky_link", config)
        b = run(1, "flaky_link", config)
        assert a.counters.as_dict() == b.counters.as_dict()
        assert a.latency.to_dict() == b.latency.to_dict()

    def test_different_seeds_draw_differently(self):
        overrides = dict(start_s=0.005, duration_s=0.03, loss_prob=0.3)
        a = run(1, "flaky_link", ClusterConfig(num_nodes=4, replication=2, seed=1), overrides)
        b = run(1, "flaky_link", ClusterConfig(num_nodes=4, replication=2, seed=2), overrides)
        assert a.counters.link_losses != b.counters.link_losses


class TestAdmissionControl:
    def test_overload_sheds_instead_of_queueing(self):
        # A 50x-slowed node with a tight SLO: reads that would wait out a
        # huge backlog are rejected fast and retried on a replica.
        store, trace = build_store(1)
        faults = FaultSchedule(
            [SlowNode(node=0, start_s=0.0, end_s=10.0, multiplier=50.0)]
        )
        config = ClusterConfig(
            num_nodes=4,
            replication=2,
            default_slo_us=500.0,
            admission_queue_slack=1.0,
        )
        report = run_scenario(store, trace, scenario=faults, cluster_config=config)
        assert report.counters.sheds > 0

    def test_per_table_slo_overrides(self):
        config = ClusterConfig(
            default_slo_us=1000.0, table_slo_us=(("t-shadow", 250.0),)
        )
        assert config.slo_us("t-shadow") == pytest.approx(250.0)
        assert config.slo_us("t-noprefetch") == pytest.approx(1000.0)


class TestDegradedCluster:
    def test_compound_scenario_costs_availability_and_tail(self):
        config = ClusterConfig(num_nodes=4, replication=2)
        healthy = run(1, "none", config)
        degraded = run(1, "degraded_cluster", config)
        assert degraded.availability < healthy.availability
        assert degraded.latency.p999_us > healthy.latency.p999_us
        assert degraded.counters.requests_degraded > 0

    def test_seeded_golden_report(self):
        # Every run is a pure function of (trace, configs, schedule, seed),
        # so one warmed degraded-cluster report is pinned bit-stably (modulo
        # the 6-decimal rounding) — the cluster tier's only latency pin.
        assert golden_scenario_pin() == GOLDEN_SCENARIO_REPORT

    def test_sweep_runs_whole_catalog(self):
        store, trace = build_store(0)
        reports = sweep_scenarios(
            store,
            trace,
            cluster_config=ClusterConfig(num_nodes=4, replication=2),
            scenario_overrides=WINDOW,
            num_requests=50,
        )
        assert set(reports) == {
            "none",
            "crash_recover",
            "slow_node",
            "flaky_link",
            "degraded_cluster",
        }
        assert reports["none"].availability == pytest.approx(1.0)
        for report in reports.values():
            assert report.num_requests == 50
            assert report.to_dict()["counters"]["requests_total"] == 50


class TestStoreMechanics:
    def test_unknown_table_raises(self):
        store, _ = build_store(0)
        cluster = ClusterStore.from_store(store)
        with pytest.raises(KeyError, match="unknown table"):
            cluster.serve_request({"no-such-table": np.array([0, 1])})

    def test_empty_table_query_skipped(self):
        store, _ = build_store(0)
        cluster = ClusterStore.from_store(store)
        outcome = cluster.serve_request({"t-noprefetch": np.array([], dtype=np.int64)})
        assert outcome.shard_groups == 0
        assert outcome.ok

    def test_from_store_defaults_to_store_cluster_config(self):
        store, _ = build_store(0)
        cluster = ClusterStore.from_store(store)
        assert cluster.config is store.config.cluster
        assert len(cluster.nodes) == store.config.cluster.num_nodes

    def test_rejects_empty_spec_set(self):
        with pytest.raises(ValueError, match="at least one table"):
            ClusterStore({}, ClusterConfig())

    def test_replication_clamped_to_cluster_size(self):
        store, _ = build_store(0)
        cluster = ClusterStore.from_store(
            store, config=ClusterConfig(num_nodes=2, replication=3)
        )
        assert cluster.replication == 2

    def test_node_blocks_read_sums_to_aggregate(self):
        store, trace = build_store(0)
        report = run_scenario(
            store,
            trace,
            scenario="none",
            cluster_config=ClusterConfig(num_nodes=4, replication=2),
        )
        assert sum(report.node_blocks_read) == report.blocks_read

    def test_negative_request_counts_rejected(self):
        # Regression: negative counts used to slice from the tail
        # (num_requests=-3, warmup_requests=-10 silently served 7).
        store, trace = build_store(0)
        with pytest.raises(ValueError, match="num_requests"):
            run_scenario(store, trace, num_requests=-3)
        with pytest.raises(ValueError, match="warmup_requests"):
            run_scenario(store, trace, num_requests=-3, warmup_requests=-10)

    def test_zero_requests_is_an_empty_report(self):
        store, trace = build_store(0)
        report = run_scenario(store, trace, num_requests=0, warmup_requests=10)
        assert report.num_requests == 0
        assert report.latency.samples == 0
        assert report.counters.requests_total == 0
        assert report.availability == pytest.approx(1.0)

    def test_report_to_dict_is_json_ready(self):
        import json

        store, trace = build_store(0)
        report = run_scenario(store, trace, num_requests=20)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["scenario"] == "none"
        assert payload["counters"]["requests_total"] == 20


def golden_scenario_pin():
    """The pinned slice of one ``degraded_cluster`` run (4 nodes, R=2, warm)."""
    report = run(
        1,
        "degraded_cluster",
        ClusterConfig(num_nodes=4, replication=2),
        warmup_requests=20,
    )
    pin = {
        key: round(getattr(report.latency, key), 6)
        for key in ("p50_us", "p95_us", "p99_us", "p999_us")
    }
    pin["makespan_us"] = round(report.makespan_s * 1e6, 6)
    pin["counters"] = report.counters.as_dict()
    return pin


#: Frozen output of :func:`golden_scenario_pin`.  It changes only when
#: cluster serving semantics change — regenerate deliberately with
#: ``python tests/test_cluster_store.py``.
GOLDEN_SCENARIO_REPORT = {
    "p50_us": 7459.412413,
    "p95_us": 8438.723683,
    "p99_us": 8672.233409,
    "p999_us": 8900.071664,
    "makespan_us": 51698.973274,
    "counters": {
        "requests_total": 92,
        "requests_ok": 57,
        "requests_degraded": 35,
        "availability": 0.6195652173913043,
        "shard_groups": 1365,
        "shard_groups_failed": 80,
        "shard_attempts": 1657,
        "retries": 292,
        "timeouts": 14,
        "link_losses": 9,
        "sheds": 358,
        "hedges_launched": 157,
        "hedges_won": 71,
        "hedges_lost": 86,
        "breaker_skips": 540,
        "breaker_ejections": 1,
        "cold_restarts": 0,
    },
}


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    import pprint

    print("GOLDEN_SCENARIO_REPORT = ", end="")
    pprint.pprint(golden_scenario_pin(), sort_dicts=False)
