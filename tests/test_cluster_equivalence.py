"""The cluster's hard invariant: a 1-node, R=1, no-fault cluster IS the store.

Sequentially replaying a request stream through a
``ClusterConfig(num_nodes=1, replication=1)`` cluster must produce
bit-identical per-table counters, cache contents and device accounting to
the single-host :class:`~repro.core.bandana.BandanaStore` replay of the
same stream — across every prefetch policy and degenerate cache size (the
randomized stores of ``conftest.build_store``).  A golden pin of
the aggregate counters guards the invariant against behavioural drift that
happens to stay self-consistent.
"""

import pytest

from repro.cluster import ClusterStore, run_scenario
from repro.core.config import ClusterConfig, ServingConfig, TracingConfig
from repro.serving import simulate_serving
from repro.serving.frontend import REQUEST_OVERHEAD_US
from repro.simulation import simulate_store
from repro.tracing import Tracer
from tests.conftest import build_store, counters

SINGLE = ClusterConfig(num_nodes=1, replication=1)


def replay_cluster(seed: int, config: ClusterConfig) -> ClusterStore:
    store, trace = build_store(seed)
    cluster = ClusterStore.from_store(store, config=config)
    for request in trace.requests():
        cluster.serve_request(request)
    return cluster


class TestSingleNodeEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_store_replay(self, seed):
        store, trace = build_store(seed)
        simulate_store(store, trace)
        cluster = replay_cluster(seed, SINGLE)
        cluster_stats = cluster.table_stats()
        for name, state in store.tables.items():
            assert counters(state.stats) == counters(cluster_stats[name]), name
        node = cluster.nodes[0]
        for name, state in store.tables.items():
            assert node.engines[name].cache.keys() == state.engine.cache.keys(), name
            assert node.engines[name].stats.misses == state.stats.misses, name

    def test_no_robustness_machinery_fires(self):
        cluster = replay_cluster(0, SINGLE)
        c = cluster.counters
        assert c.requests_degraded == 0
        assert c.retries == c.timeouts == c.link_losses == 0
        assert c.hedges_launched == c.sheds == 0
        assert c.breaker_skips == c.breaker_ejections == c.cold_restarts == 0
        assert c.availability == pytest.approx(1.0)

    def test_full_cache_budget_on_single_node(self):
        # The 1-node cluster owns every block of every table, so the scaled
        # per-node cache budgets equal the store's own budgets exactly.
        store, _ = build_store(0)
        cluster = ClusterStore.from_store(store, config=SINGLE)
        engines = cluster.nodes[0].engines
        for name, state in store.tables.items():
            assert engines[name].cache.capacity == state.cache_config.cache_size_vectors, name

    def test_golden_aggregate_pin(self):
        # build_store(0) replayed through the 1-node cluster.  If this pin
        # moves, either the seed stores changed or cluster serving diverged
        # from single-host serving — both must be deliberate.
        cluster = replay_cluster(0, SINGLE)
        assert cluster.aggregate_stats().counters() == (
            2342,
            514,
            1828,
            6528,
            237,
            6238,
            8098,
        )
        assert cluster.counters.requests_total == 106
        assert cluster.counters.shard_groups == 485


class TestShardedEquivalenceOfWork:
    @pytest.mark.parametrize("num_nodes,replication", [(2, 1), (4, 1), (4, 2)])
    def test_lookup_conservation(self, num_nodes, replication):
        # Sharding moves work between nodes but never invents or drops
        # lookups: with no faults (no retries, no hedges, R=1) the summed
        # per-table lookup counters equal the single-host replay's.
        config = ClusterConfig(
            num_nodes=num_nodes, replication=replication, hedge_enabled=False
        )
        store, trace = build_store(0)
        simulate_store(store, trace)
        cluster = replay_cluster(0, config)
        cluster_stats = cluster.table_stats()
        for name, state in store.tables.items():
            assert cluster_stats[name].lookups == state.stats.lookups, name
        assert cluster.counters.requests_degraded == 0

    def test_request_order_preserved_within_shard(self):
        # Routing groups ids by replica set but must keep each group in
        # request order; with one node per shard this means per-node replay
        # order equals request order.  Hits can only come from earlier ids.
        config = ClusterConfig(num_nodes=2, replication=1, hedge_enabled=False)
        cluster = replay_cluster(0, config)
        stats = cluster.aggregate_stats()
        assert stats.lookups > 0
        assert 0 <= stats.hits <= stats.lookups


class TestServingIntegration:
    def test_cluster_routed_serving_report(self):
        store, trace = build_store(0)
        report = run_scenario(
            store, trace, "none", cluster_config=ClusterConfig(num_nodes=4, replication=2)
        )
        assert report.num_requests == 106
        # Hedged reads do real duplicate work, so lookups can exceed the
        # single-host stream's 2342 but never undershoot it.
        assert report.lookups >= 2342
        assert 0.0 <= report.hit_rate <= 1.0
        assert report.latency.p999_us >= report.latency.p50_us > 0.0
        assert report.blocks_read > 0
        assert report.makespan_s > 0.0

    def test_omitted_configs_are_the_defaults(self):
        # The store carries no cluster or serving knobs: leaving both out is
        # exactly ``ClusterConfig()`` and ``ServingConfig()``.
        store, trace = build_store(0)
        implicit = run_scenario(store, trace, "none", num_requests=30)
        store, trace = build_store(0)
        explicit = run_scenario(
            store,
            trace,
            "none",
            cluster_config=ClusterConfig(),
            serving_config=ServingConfig(),
            num_requests=30,
        )
        assert implicit.to_dict() == explicit.to_dict()

    def test_cluster_routed_zero_requests_is_an_empty_report(self):
        store, trace = build_store(0)
        report = run_scenario(store, trace, "none", cluster_config=SINGLE, num_requests=0)
        assert report.num_requests == report.num_batches == 0
        assert report.latency.samples == 0
        assert report.device_bank is None  # each cluster node owns its devices
        assert report.counters.requests_total == 0
        assert report.node_blocks_read == [0]

    def test_single_node_serving_matches_store_counters(self):
        # The cluster-routed front-end re-times the same work: with one
        # node and R=1 the cache counters equal the plain replay's.
        store, trace = build_store(0)
        simulate_store(store, trace)
        expected = store.aggregate_stats()
        store2, trace2 = build_store(0)
        report = run_scenario(store2, trace2, "none", cluster_config=SINGLE)
        assert report.lookups == expected.lookups
        assert report.blocks_read == expected.misses
        assert report.hit_rate == pytest.approx(expected.hits / expected.lookups)
        assert report.node_blocks_read == [expected.misses]
        assert report.counters.requests_total == report.num_requests


class TestRequestOverheadCountedOnce:
    """Both backends complete a request before its request overhead.

    A host batch's completion and a cluster request's (its slowest shard
    group) both exclude ``REQUEST_OVERHEAD_US``; the serving loop adds it to
    every latency once, whichever the backend.  So a run's makespan ends at
    its last completion, one overhead before the last response: the cluster
    used to fold the overhead into its completion and end 5 µs later.
    """

    CONFIG = ServingConfig(seed=3, max_batch_requests=1, max_linger_us=0.0)

    @pytest.mark.parametrize("backend", ["host", "cluster"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_makespan_ends_one_overhead_before_the_last_response(self, seed, backend):
        store, trace = build_store(seed)
        tracer = Tracer(TracingConfig(enabled=True, max_requests=10**6))
        if backend == "host":
            report = simulate_serving(store, trace, self.CONFIG, tracing=tracer)
        else:
            report = run_scenario(
                store, trace, "none", SINGLE, self.CONFIG, tracing=tracer
            )
        traces = [tracer.traces[i] for i in range(report.num_requests)]
        responded_us = max(t.completion_us for t in traces)
        first_arrival_us = min(t.arrival_us for t in traces)
        assert report.makespan_s * 1e6 == pytest.approx(
            responded_us - REQUEST_OVERHEAD_US - first_arrival_us, abs=1e-6
        )
        assert max(t.latency_us for t in traces) == pytest.approx(
            report.latency.max_us, abs=1e-6
        )
