"""Robustness behaviour of the fault-injected cluster store.

These are the graceful-degradation contracts: replication survives a node
crash with zero failed requests, an unreplicated crash degrades (but never
wedges) the stream, slow nodes trigger hedges and breaker ejections, flaky
links are retried, overload sheds instead of queueing unboundedly, and
recovered nodes restart cold.  Every run is a pure function of
(trace, configs, schedule, seed) — pinned by the determinism test.
"""

import hashlib
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.faults import (
    SCENARIOS,
    DegradedLink,
    FaultSchedule,
    NodeCrash,
    SlowNode,
)
from repro.cluster import ClusterStore, run_scenario
from repro.caching.policies import NoPrefetchPolicy
from repro.cluster.store import (
    _HEDGE_REFRESH,
    _HEDGE_WINDOW,
    HEDGE_MIN_US,
    HEDGE_QUANTILE,
    _linear_quantile,
)
from repro.core.bandana import BandanaStore, BandanaTableState
from repro.core.config import BandanaConfig, ClusterConfig, ServingConfig, TableCacheConfig
from repro.nvm.block import BlockLayout
from repro.tracing import Tracer, validate_trace
from repro.tracing.tracer import (
    STAGE_ATTEMPT_BREAKER_SKIP,
    STAGE_ATTEMPT_LINK_LOSS,
    STAGE_ATTEMPT_OK,
    STAGE_ATTEMPT_SHED,
    STAGE_ATTEMPT_TIMEOUT,
    STAGE_HEDGE_LOST,
    STAGE_HEDGE_WON,
    STAGE_NODE_SERVICE,
)
from tests.conftest import build_store, counters, fold_run, golden

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
        assert report.counters.availability == pytest.approx(1.0)
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
        assert 0.0 < report.counters.availability < 1.0
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
        assert report.counters.availability == pytest.approx(1.0)

    def test_a_restarted_node_keeps_the_policy_it_was_built_with(self):
        # Regression: a restart deep-copied the host's *live* policy, so a
        # host retune after the cluster was built reached only the nodes that
        # restarted later (node 0 admitted by threshold 1e6, node 1 by 10).
        store, _ = build_store(0)
        cluster = ClusterStore.from_store(store, ClusterConfig(num_nodes=2, replication=2))
        name = "t-threshold"
        built = store.tables[name].policy.threshold
        store.tables[name].policy.retune(threshold=1e6)
        cluster.nodes[0].cold_restart(0.0)
        for node in cluster.nodes:
            policy = node.store.tables[name].policy
            assert policy is not store.tables[name].policy
            assert node.engines[name].policy is policy
            assert policy.threshold == built

    def test_node_policies_read_the_host_counts_without_a_copy(self):
        # Regression: the deep copy of the policy also copied its counts,
        # 8 B per vector per node per table, beside the shared table array.
        store, _ = build_store(0)
        cluster = ClusterStore.from_store(store, ClusterConfig(num_nodes=4, replication=2))
        name = "t-threshold"
        host_counts = store.tables[name].access_counts
        assert store.tables[name].policy.access_counts is host_counts
        for node in cluster.nodes:
            table = node.store.tables[name]
            assert table.access_counts is host_counts
            assert table.policy.access_counts is host_counts
            assert table.policy is not store.tables[name].policy


class TestHostileCrashWindows:
    """Crash schedules a catalog scenario never writes, on two nodes, R = 2."""

    @staticmethod
    def crashed(windows):
        """``build_store(0)`` with node crashes over fractions of the healthy run."""
        store, trace = build_store(0)
        healthy = run_scenario(
            store, trace, cluster_config=ClusterConfig(num_nodes=2, replication=2)
        )
        run_s = healthy.makespan_s
        faults = FaultSchedule(
            [NodeCrash(node=node, start_s=a * run_s, end_s=b * run_s) for node, a, b in windows]
        )
        config = ClusterConfig(num_nodes=2, replication=2, breaker_cooloff_s=0.01 * run_s)
        store, trace = build_store(0)
        return run_scenario(store, trace, scenario=faults, cluster_config=config)

    def test_overlapping_windows_restart_the_node_once(self):
        # The same outage as one window or as two overlapping ones: the node
        # used to cold-restart at 0.4 of the run, while it was still down.
        single = self.crashed([(0, 0.2, 0.6)])
        overlapping = self.crashed([(0, 0.2, 0.4), (0, 0.3, 0.6)])
        assert single.counters.cold_restarts == overlapping.counters.cold_restarts == 1
        assert overlapping.to_dict() == single.to_dict()

    def test_every_replica_down_degrades_every_request(self):
        report = self.crashed([(0, 0.0, 2.0), (1, 0.0, 2.0)])
        assert report.num_requests == report.counters.requests_degraded == 106
        assert report.counters.availability == pytest.approx(0.0)
        assert report.lookups == 0
        # Every shard group burns its attempts' timeouts and backoffs.
        assert report.latency.max_us == pytest.approx(5505.0)

    def test_crash_from_time_zero_fails_over_and_recovers_cold(self):
        report = self.crashed([(0, 0.0, 0.5)])
        assert report.counters.availability == pytest.approx(1.0)
        assert report.counters.timeouts > 0
        assert report.counters.cold_restarts == 1


class TestSlowNodesAndHedging:
    def test_slow_node_triggers_hedges(self):
        report = run(1, "slow_node", ClusterConfig(num_nodes=4, replication=2))
        assert report.counters.hedges_launched > 0
        assert report.counters.hedges_won > 0
        assert report.counters.availability == pytest.approx(1.0)

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
        assert report.counters.availability == pytest.approx(1.0)

    def test_breaker_never_ejects_a_healthy_node_behind_a_backlog(self):
        # Slow strikes judge service time, not the attempt's latency: fifty
        # one-id requests dispatched together queue up behind each other on
        # the primary, whose attempts then take far longer than the threshold
        # while each read's service stays under it.  One strike would eject.
        threshold_us = 100.0
        config = ClusterConfig(
            num_nodes=2,
            replication=2,
            hedge_enabled=False,
            breaker_failure_threshold=1,
            breaker_slow_threshold_us=threshold_us,
        )
        cluster = ClusterStore(_bare_store([64]), config)
        tracer = Tracer()
        cluster.set_tracer(tracer)
        outcomes = [cluster.serve_request({"t0": [vid]}, now_us=0.0) for vid in range(50)]
        assert max(o.completion_us - o.arrival_us for o in outcomes) > 5 * threshold_us
        spans = [span for trace in tracer.traces.values() for span in trace.spans]
        attempts = [span for span in spans if span.name == STAGE_ATTEMPT_OK]
        services = [span for span in spans if span.name == STAGE_NODE_SERVICE]
        assert len(attempts) == len(services) == 50
        assert max(span.t_end_us - span.t_start_us for span in services) < threshold_us
        assert cluster.counters.breaker_ejections == 0
        assert cluster.counters.breaker_skips == 0


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
        assert report.counters.availability == pytest.approx(1.0)

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
        # huge backlog are rejected fast and retried on a replica.  The
        # run's ServingConfig slack is the one knob: without it nothing
        # sheds.
        faults = FaultSchedule(
            [SlowNode(node=0, start_s=0.0, end_s=10.0, multiplier=50.0)]
        )
        config = ClusterConfig(num_nodes=4, replication=2)
        reports = {}
        for slack in (None, 1.0):
            store, trace = build_store(1)
            serving = ServingConfig(slo_latency_us=500.0, admission_queue_slack=slack)
            reports[slack] = run_scenario(
                store, trace, faults, config, serving_config=serving
            )
        assert reports[None].counters.sheds == 0
        assert reports[1.0].counters.sheds > 0
        # Shedding trades the slow node's queue for a replica's service.
        assert reports[1.0].latency.p99_us < reports[None].latency.p99_us

    @pytest.mark.parametrize("devices", [1, 2, 3])
    def test_every_node_has_devices_per_host_devices(self, devices):
        # Each node builds its bank as the host backend does.
        store, trace = build_store(0)
        cluster = ClusterStore.from_store(
            store,
            ClusterConfig(num_nodes=4),
            serving=ServingConfig(devices_per_host=devices),
        )
        for node in cluster.nodes:
            assert len(node.bank.devices) == devices
            mapping = node.bank.snapshot()["table_mapping"]
            assert list(mapping) == list(node.engines)
            assert list(mapping.values()) == [
                i % devices for i in range(len(mapping))
            ]
        cluster.replay_requests(trace.requests())
        issued = [
            device.blocks_issued for node in cluster.nodes for device in node.bank.devices
        ]
        assert sum(issued) == sum(cluster.node_blocks_read())


class TestDegradedCluster:
    def test_compound_scenario_costs_availability_and_tail(self):
        # Unreplicated, the compound scenario's crash costs availability;
        # replicated, the failover machinery keeps every request whole (no
        # read sheds unless the run's ServingConfig sets a slack) and the
        # compound faults cost only tail latency.
        for replication in (1, 2):
            config = ClusterConfig(num_nodes=4, replication=replication)
            healthy = run(1, "none", config)
            degraded = run(1, "degraded_cluster", config)
            assert healthy.counters.availability == pytest.approx(1.0)
            assert degraded.latency.p999_us > healthy.latency.p999_us
            c = degraded.counters
            assert c.timeouts > 0 and c.link_losses > 0
            if replication == 1:
                assert c.requests_degraded > 0 and c.availability < 1.0
            else:
                assert c.requests_degraded == 0 and c.retries >= c.timeouts

    def test_seeded_golden_report(self):
        # Every run is a pure function of (trace, configs, schedule, seed),
        # so one warmed degraded-cluster report is pinned bit-stably (modulo
        # the 6-decimal rounding) — the cluster tier's only latency pin.
        golden("cluster_scenario_report")

    def test_sweep_runs_whole_catalog(self):
        store, trace = build_store(0)
        reports = {
            name: run_scenario(
                store,
                trace,
                scenario=name,
                cluster_config=ClusterConfig(num_nodes=4, replication=2),
                scenario_overrides=WINDOW,
                num_requests=50,
            )
            for name in SCENARIOS
        }
        assert set(reports) == {
            "none",
            "crash_recover",
            "slow_node",
            "flaky_link",
            "degraded_cluster",
        }
        assert reports["none"].counters.availability == pytest.approx(1.0)
        for report in reports.values():
            assert report.num_requests == 50
            assert report.to_dict()["counters"]["requests_total"] == 50

    def test_seeded_golden_traces(self):
        # Pins every span the router records, not just the counters: each
        # catalog scenario at R = 1, 2, 3 must reproduce its report and span
        # tree bit for bit, and the set must exercise every attempt outcome.
        stages = set(golden("cluster_trace_digests")["span_names"])
        assert {
            STAGE_ATTEMPT_TIMEOUT,
            STAGE_ATTEMPT_LINK_LOSS,
            STAGE_ATTEMPT_SHED,
            STAGE_ATTEMPT_BREAKER_SKIP,
            STAGE_HEDGE_WON,
            STAGE_HEDGE_LOST,
        } <= stages


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
        assert outcome.failed_groups == 0

    def test_from_store_defaults_to_the_default_cluster_config(self):
        store, _ = build_store(0)
        cluster = ClusterStore.from_store(store)
        assert cluster.config == ClusterConfig()
        assert len(cluster.nodes) == ClusterConfig().num_nodes

    def test_rejects_empty_spec_set(self):
        with pytest.raises(ValueError, match="at least one table"):
            ClusterStore(BandanaStore(BandanaConfig(), {}), ClusterConfig())

    def test_fault_on_a_missing_node_rejected(self):
        # Regression: a crash on node 7 of 4 never fired, and the run
        # reported a healthy cluster (0 timeouts) instead of an error.
        store, _ = build_store(1)
        with pytest.raises(ValueError, match=r"NodeCrash names node 7.* 4 nodes"):
            run(
                1,
                FaultSchedule([NodeCrash(node=7, start_s=0.005, end_s=0.035)]),
                ClusterConfig(num_nodes=4, replication=2),
                overrides=None,
            )
        for event in (
            SlowNode(node=4, start_s=0.0, end_s=1.0),
            DegradedLink(node=4, start_s=0.0, end_s=1.0, loss_prob=0.5),
        ):
            with pytest.raises(ValueError, match=type(event).__name__):
                ClusterStore.from_store(
                    store, ClusterConfig(num_nodes=4), FaultSchedule([event])
                )
        # The last node is a valid target.
        ClusterStore.from_store(
            store,
            ClusterConfig(num_nodes=4),
            FaultSchedule([NodeCrash(node=3, start_s=0.0, end_s=1.0)]),
        )

    def test_replication_clamped_to_cluster_size(self):
        store, _ = build_store(0)
        cluster = ClusterStore.from_store(
            store, config=ClusterConfig(num_nodes=2, replication=3)
        )
        assert cluster.replication == 2

    @pytest.mark.parametrize("replication", [1, 2])
    @pytest.mark.parametrize("warmup_requests", [0, 20])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_report_obeys_conservation_laws(
        self, scenario, warmup_requests, replication
    ):
        # A cluster report obeys the host report's laws.  A cold restart
        # rebuilds a node's engines but keeps its stats, so the per-node
        # counts must span the crash (at R = 1 they once went negative; at
        # R = 2 the crashed node is not touched again).
        store, trace = build_store(0)
        report = run_scenario(
            store,
            trace,
            scenario=scenario,
            cluster_config=ClusterConfig(num_nodes=4, replication=replication),
            scenario_overrides=WINDOW,
            warmup_requests=warmup_requests,
        )
        n = report.num_requests
        assert n > 0
        # Unbatched: every request is its own batch and its own sample.
        assert report.batch_size_hist == {1: n}
        assert report.latency.samples == n
        # The cluster sheds per shard read (counters.sheds), never a request,
        # and each node owns its devices: there is no host bank.
        assert report.requests_shed == 0
        assert report.device_bank is None
        assert report.counters.requests_total == n
        assert sum(report.node_blocks_read) == report.blocks_read
        assert all(blocks >= 0 for blocks in report.node_blocks_read)

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
        assert report.counters.availability == pytest.approx(1.0)

    def test_report_to_dict_is_json_ready(self):
        store, trace = build_store(0)
        report = run_scenario(store, trace, num_requests=20)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["counters"]["requests_total"] == 20
        assert payload["counters"]["availability"] == pytest.approx(1.0)
        assert sum(payload["node_blocks_read"]) == payload["blocks_read"]

    def test_overrides_with_an_explicit_schedule_rejected(self):
        # Regression: the overrides were dropped without a word, so the run
        # looked like it honoured a window it never applied.
        store, trace = build_store(0)
        faults = FaultSchedule([NodeCrash(node=0, start_s=0.0, end_s=0.01)])
        with pytest.raises(ValueError, match=r"FaultSchedule.*\['duration_s', 'multiplier'\]"):
            run_scenario(
                store,
                trace,
                scenario=faults,
                scenario_overrides={"multiplier": 2.0, "duration_s": 0.5},
            )
        # An empty mapping overrides nothing and is accepted.
        report = run_scenario(
            store, trace, scenario=faults, scenario_overrides={}, num_requests=5
        )
        assert report.counters.requests_total == 5


def _route_reference(cluster, request):
    """The pre-table router: ``np.unique(axis=0)`` per (request, table).

    Kept as the oracle for :meth:`ClusterStore._route` — groups of a table in
    the lexicographic order of their replica rows, ids in request order.
    """
    groups = []
    for table_name, raw_ids in request.items():
        layout = cluster.store.tables[table_name].layout
        ids = np.asarray(raw_ids, dtype=np.int64)
        if ids.size == 0:
            continue
        rows = cluster._owners[table_name][layout.block_of(ids)]
        unique_rows, inverse = np.unique(rows, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        for g in range(unique_rows.shape[0]):
            groups.append(
                (
                    table_name,
                    tuple(int(n) for n in unique_rows[g]),
                    ids[inverse == g],
                )
            )
    return groups


def _bare_store(table_sizes):
    """A store of identity-layout, no-prefetch tables ``t0, t1, …`` (8 per block)."""
    tables = {
        f"t{i}": BandanaTableState(
            name=f"t{i}",
            layout=BlockLayout.identity(size, 8),
            policy=NoPrefetchPolicy(),
            cache_config=TableCacheConfig(cache_size_vectors=8),
            access_counts=np.zeros(size, dtype=np.int64),
        )
        for i, size in enumerate(table_sizes)
    }
    return BandanaStore(BandanaConfig(block_bytes=8 * 128), tables)


def _bare_cluster(table_sizes, num_nodes, replication, virtual_nodes):
    """A cluster over identity-layout tables of the given sizes (8 per block)."""
    config = ClusterConfig(
        num_nodes=num_nodes, replication=replication, virtual_nodes=virtual_nodes
    )
    return ClusterStore(_bare_store(table_sizes), config)


@st.composite
def bare_clusters(draw):
    return _bare_cluster(
        draw(st.lists(st.integers(1, 200), min_size=1, max_size=3)),
        num_nodes=draw(st.integers(1, 5)),
        replication=draw(st.integers(1, 3)),
        virtual_nodes=draw(st.sampled_from([1, 4, 32])),
    )


@st.composite
def routed_requests(draw):
    cluster = draw(bare_clusters())
    # Duplicates, empty tables and single ids all come out of this list.
    request = {
        name: draw(st.lists(st.integers(0, state.layout.num_vectors - 1), max_size=40))
        for name, state in cluster.store.tables.items()
        if draw(st.booleans())
    }
    return cluster, request


class TestRoutingTable:
    @settings(max_examples=60, deadline=None)
    @given(routed_requests())
    def test_route_matches_unique_oracle(self, case):
        cluster, request = case
        routed = cluster._route(request)
        reference = _route_reference(cluster, request)
        assert len(routed) == len(reference)
        for (table, replicas, ids), (ref_table, ref_replicas, ref_ids) in zip(
            routed, reference
        ):
            assert table == ref_table
            assert replicas == ref_replicas
            assert all(type(node) is int for node in replicas)
            assert ids.dtype == np.int64
            assert ids.tolist() == ref_ids.tolist()

    @settings(max_examples=30, deadline=None)
    @given(bare_clusters())
    def test_replica_sets_are_the_sorted_distinct_owner_rows(self, cluster):
        # The routing table maps each vector to its block's owner row.
        for name, owners in cluster._owners.items():
            vector_group, sets = cluster._routes[name]
            assert sets == sorted(set(sets))  # distinct, lexicographic
            layout = cluster.store.tables[name].layout
            assert vector_group.shape == (layout.num_vectors,)
            blocks = layout.block_of(np.arange(layout.num_vectors))
            assert np.array_equal(np.array(sets)[vector_group], owners[blocks])
            assert set(vector_group.tolist()) == set(range(len(sets)))


def _serving_footprint(cluster):
    """Everything a request may change: engines, devices, counters, clock."""
    return (
        counters(cluster.aggregate_stats()),
        cluster.counters.as_dict(),
        [[device.serves for device in node.bank.devices] for node in cluster.nodes],
        cluster.node_blocks_read(),
        cluster._clock_us,
    )


class TestRejectedRequests:
    @pytest.mark.parametrize("num_nodes", [1, 4])
    def test_out_of_range_id_rejects_the_whole_request(self, num_nodes):
        # Regression: one node skipped the router's range check, so t0 was
        # served (3 lookups, one device serve) before t1 raised in the engine.
        cluster = _bare_cluster([64, 64], num_nodes, replication=2, virtual_nodes=32)
        cluster.serve_request({"t0": [5, 6], "t1": [7]})
        before = _serving_footprint(cluster)
        with pytest.raises(IndexError, match="vector ids must be in"):
            cluster.serve_request({"t0": [0, 1, 2], "t1": [10**9]})
        with pytest.raises(KeyError, match="unknown table"):
            cluster.serve_request({"t0": [0, 1, 2], "no-such-table": [0]})
        assert _serving_footprint(cluster) == before

    @pytest.mark.parametrize("bad_ids", [[1.7, 2.2], [True, False]], ids=["floats", "bools"])
    def test_non_integer_ids_are_rejected_like_the_host(self, bad_ids):
        # Regression: the router cast ids to int64, so [1.7, 2.2] was served
        # as ids 1 and 2 and [True, False] as ids 1 and 0; the host raises.
        store, _trace = build_store(0)
        cluster = ClusterStore.from_store(store, ClusterConfig(num_nodes=2))
        name, other = sorted(cluster.store.tables)[:2]
        cluster.serve_request({name: [5, 6], other: [7]})
        before = _serving_footprint(cluster)
        with pytest.raises(TypeError, match="must contain integers") as host:
            store.lookup(name, bad_ids)
        with pytest.raises(TypeError) as routed:
            cluster.serve_request({other: [0, 1], name: bad_ids})
        assert str(routed.value) == str(host.value)
        assert _serving_footprint(cluster) == before

    def test_rejected_request_does_not_wedge_a_traced_cluster(self):
        # Regression: the root span opened before routing, so the rejected
        # request's id stayed pending and the next one was "already traced".
        cluster = _bare_cluster([64], num_nodes=4, replication=2, virtual_nodes=32)
        tracer = Tracer()
        cluster.set_tracer(tracer)
        with pytest.raises(IndexError):
            cluster.serve_request({"t0": [64]})
        outcome = cluster.serve_request({"t0": [1, 2, 63]})
        assert outcome.failed_groups == 0
        assert list(tracer.traces) == [0]
        assert validate_trace(tracer.traces[0]) == []

    @pytest.mark.parametrize("now_us", [math.nan, math.inf, -math.inf, -1.0])
    def test_hostile_dispatch_time_is_rejected_before_anything_runs(self, now_us):
        # Regression: the first shard's engine replayed before the device
        # clock refused the time, so lookups were counted for a request that
        # never counted and the next traced request was "already traced".
        cluster = _bare_cluster([64, 64], num_nodes=4, replication=2, virtual_nodes=32)
        tracer = Tracer()
        cluster.set_tracer(tracer)
        cluster.serve_request({"t0": [5, 6], "t1": [7]}, now_us=0.0)
        before = _serving_footprint(cluster)
        with pytest.raises(ValueError, match="now_us"):
            cluster.serve_request({"t0": [0, 1, 2], "t1": [3]}, now_us=now_us)
        assert _serving_footprint(cluster) == before
        outcome = cluster.serve_request({"t0": [0, 1, 2], "t1": [3]}, now_us=50.0)
        assert outcome.failed_groups == 0
        assert list(tracer.traces) == [0, 1]
        assert validate_trace(tracer.traces[1]) == []


class TestHedgeQuantile:
    QUANTILES = (0.5, 0.9, 0.95, 0.99, 0.999)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1e7, allow_nan=False),
                st.sampled_from([0.0, 1.0, 105.0, 1e-9, 3e6]),  # ties, magnitudes
            ),
            min_size=1,
            max_size=512,
        )
    )
    def test_matches_numpy_percentile_exactly(self, window):
        ordered = sorted(window)
        for q in self.QUANTILES:
            assert _linear_quantile(ordered, q) == float(
                np.percentile(window, q * 100.0)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1e7, allow_nan=False),
                st.sampled_from([0.0, 1.0, 105.0, 3e6]),  # ties
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 7),
        st.integers(0, 3 * _HEDGE_WINDOW),
    )
    def test_sorted_window_stays_the_sorted_window(self, pattern, stride, length):
        # The router keeps the trailing window twice, in arrival order and
        # sorted; after every sample the sorted copy is sorted(window), the
        # window the last _HEDGE_WINDOW samples, and the hedge delay what a
        # fresh sort at each refresh gives.
        cluster = _bare_cluster([8], num_nodes=1, replication=1, virtual_nodes=1)
        samples = [pattern[(i * stride) % len(pattern)] for i in range(length)]
        for count, latency in enumerate(samples, 1):
            cluster._record_shard_latency(latency)
            window = list(cluster._latency_window)
            assert window == samples[max(0, count - _HEDGE_WINDOW) : count]
            assert cluster._latency_sorted == sorted(window)
            if count % _HEDGE_REFRESH == 0:
                assert cluster._hedge_delay_us == max(
                    HEDGE_MIN_US, _linear_quantile(sorted(window), HEDGE_QUANTILE)
                )

    def test_edges(self):
        low, high = 1.0, 2.0
        assert _linear_quantile([high], 0.99) == high  # a single sample
        assert _linear_quantile([low, high], 1.0) == high
        assert _linear_quantile([low, high], 0.0) == low
        assert _linear_quantile([high, high, high], 0.7) == high  # b == a


#: The admission knobs the goldens run under.  A ServingConfig sheds nothing
#: by default; slack 4 against a 2000 µs SLO gives the set its shed reads.
GOLDEN_SERVING = ServingConfig(slo_latency_us=2000.0, admission_queue_slack=4.0)


def golden_scenario_pin():
    """The pinned slice of one ``degraded_cluster`` run (4 nodes, R=2, warm)."""
    report = run(
        1,
        "degraded_cluster",
        ClusterConfig(num_nodes=4, replication=2),
        warmup_requests=20,
        serving_config=GOLDEN_SERVING,
    )
    pin = {
        key: round(getattr(report.latency, key), 6)
        for key in ("p50_us", "p95_us", "p99_us", "p999_us")
    }
    pin["makespan_us"] = round(report.makespan_s * 1e6, 6)
    pin["counters"] = report.counters.as_dict()
    return pin


def golden_trace_digests():
    """Per-run sha256 digests of the trace-golden set, and every span name seen.

    Each catalog scenario at R = 1, 2, 3 on 4 nodes, traced in full under
    :data:`GOLDEN_SERVING`, with a 300 µs slow-strike threshold (so breakers
    open) and ``flaky_link`` at 40 % loss.  A digest covers
    ``report.to_dict()`` and every retained span: ids, parent, name, exact
    start/end (``float.hex``) and sorted attributes.
    """
    digests, stages = {}, set()
    for scenario in SCENARIOS:
        overrides = dict(WINDOW, loss_prob=0.4) if scenario == "flaky_link" else WINDOW
        for replication in (1, 2, 3):
            config = ClusterConfig(
                num_nodes=4, replication=replication, breaker_slow_threshold_us=300.0
            )
            one_run = partial(
                run, 1, scenario, config, overrides=overrides, serving_config=GOLDEN_SERVING
            )
            sha = hashlib.sha256()
            stages |= fold_run(sha, one_run)
            digests[f"{scenario}/R{replication}"] = sha.hexdigest()
    return {"digests": digests, "span_names": sorted(stages)}
