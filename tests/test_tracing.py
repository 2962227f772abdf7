"""Tests for the per-request span-tracing layer (repro.tracing).

Covers the tracing PR end to end: tracer unit behaviour (recording,
sampling, eviction, the no-op singleton), the structural trace invariants
(nesting, monotonicity, conservation) over real batched-serving and
fault-injected cluster runs, the acceptance criterion that a replicated
crash's p999 inflation is attributed to failover spans rather than device
service, the metrics-correctness satellites (queue-depth zero bucket,
percentile sample-rank flagging, hedge accounting), and the lint coverage
guaranteeing the tracing package stays on the simulated clock.
"""

import numpy as np
import pytest

from tests.test_cluster_store import run as run_cluster_scenario
from tests.test_serving import build_store_and_trace

from repro.core.config import ClusterConfig, ServingConfig, TracingConfig
from repro.device.clock import depth_bucket
from repro.serving import simulate_serving
from repro.serving.report import LatencySummary, percentile_min_samples
from repro.tracing.tracer import (
    ATTR_OVERLAP_OK,
    STAGE_ATTEMPT_LINK_LOSS,
    STAGE_ATTEMPT_TIMEOUT,
    STAGE_BACKOFF,
    STAGE_BATCH_QUEUE,
    STAGE_DEVICE_QUEUE,
    STAGE_DEVICE_SERVICE,
    STAGE_HEDGE_WON,
    STAGE_NODE_QUEUE,
    STAGE_NODE_SERVICE,
    STAGE_OVERHEAD,
    STAGE_REQUEST,
    resolve_tracer,
)
from repro.tracing import NULL_TRACER, NullTracer, Tracer, validate_trace
from repro.tracing.summary import critical_path
from repro_lint import lint_source
from repro_lint.rules import CONFIG_CLASSES, WALL_CLOCK_ALLOWED_MODULES


def all_retained_traces_valid(tracer):
    problems = []
    for trace in tracer.traces.values():
        problems.extend(validate_trace(trace))
    return problems


def stage_total(trace, *names):
    return sum(s.duration_us for s in trace.spans if s.name in names)


# ---------------------------------------------------------------- tracer unit
class TestTracerUnit:
    def test_manual_trace_records_and_queries(self):
        tracer = Tracer()
        root = tracer.begin_request(7, 100.0)
        tracer.span(7, STAGE_BATCH_QUEUE, 100.0, 140.0, batch=0)
        sid = tracer.open_span(7, STAGE_DEVICE_SERVICE, 140.0)
        tracer.close_span(7, sid, 190.0, block_reads=3)
        tracer.end_request(7, 200.0)
        trace = tracer.traces[7]
        spans = trace.spans
        assert [s.name for s in spans] == [
            STAGE_REQUEST,
            STAGE_BATCH_QUEUE,
            STAGE_DEVICE_SERVICE,
        ]
        assert spans[0].span_id == root
        assert spans[0].parent_id is None
        assert all(s.parent_id == root for s in spans[1:])
        assert spans[2].attributes["block_reads"] == 3
        assert validate_trace(trace) == []
        # The critical path follows the latest-ending child chain.
        assert [s.name for s in critical_path(trace)] == [
            STAGE_REQUEST,
            STAGE_DEVICE_SERVICE,
        ]

    def test_duplicate_begin_raises(self):
        tracer = Tracer()
        tracer.begin_request(1, 0.0)
        with pytest.raises(ValueError):
            tracer.begin_request(1, 5.0)

    def test_close_unknown_span_raises(self):
        tracer = Tracer()
        tracer.begin_request(1, 0.0)
        with pytest.raises(KeyError):
            tracer.close_span(1, 999, 10.0)

    def test_overlap_flag_exempts_speculative_losers(self):
        tracer = Tracer()
        root = tracer.begin_request(0, 0.0)
        group = tracer.open_span(0, "shard_group", 0.0)
        # A lost hedge that finished after the group closed: valid only
        # because it carries the overlap flag.
        tracer.span(0, "hedge.lost", 5.0, 50.0, parent_id=group, **{ATTR_OVERLAP_OK: True})
        tracer.close_span(0, group, 20.0)
        tracer.end_request(0, 20.0)
        assert validate_trace(tracer.traces[0]) == []
        assert root is not None

    def test_invalid_nesting_is_flagged(self):
        tracer = Tracer()
        root = tracer.begin_request(0, 0.0)
        tracer.span(0, "child", 0.0, 50.0, parent_id=root)  # ends after root
        tracer.end_request(0, 20.0)
        problems = validate_trace(tracer.traces[0])
        assert any("ends after its parent" in p for p in problems)

    def test_null_tracer_is_shared_noop(self):
        assert resolve_tracer(None) is NULL_TRACER
        assert resolve_tracer(TracingConfig()) is NULL_TRACER  # disabled default
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled and Tracer.enabled
        assert NULL_TRACER.begin_request(3, 0.0) == -1
        NULL_TRACER.span(3, "x", 0.0, 1.0)
        NULL_TRACER.end_request(3, 1.0)
        assert NULL_TRACER.traces == {}
        assert NULL_TRACER.counters()["requests_started"] == 0

    def test_resolve_passthrough_and_enabled_config(self):
        mine = Tracer()
        assert resolve_tracer(mine) is mine
        made = resolve_tracer(
            TracingConfig(enabled=True, sample_every=4), slo_latency_us=123.0
        )
        assert made is not NULL_TRACER
        assert made.config.sample_every == 4
        assert made.slo_latency_us == pytest.approx(123.0)


# ------------------------------------------------------- sampling and eviction
class TestSamplingAndEviction:
    @staticmethod
    def _run_requests(tracer, latencies_us):
        for i, latency in enumerate(latencies_us):
            tracer.begin_request(i, 1000.0 * i)
            tracer.end_request(i, 1000.0 * i + latency)

    def test_sample_every_keeps_every_nth(self):
        tracer = Tracer(TracingConfig(enabled=True, sample_every=3))
        self._run_requests(tracer, [10.0] * 10)
        assert sorted(tracer.traces) == [0, 3, 6, 9]
        counters = tracer.counters()
        assert counters["requests_started"] == counters["requests_ended"] == 10
        assert counters["requests_retained"] == 4
        assert counters["requests_sampled_out"] == 6

    def test_slo_violators_bypass_sampling(self):
        tracer = Tracer(
            TracingConfig(enabled=True, sample_every=1000), slo_latency_us=50.0
        )
        self._run_requests(tracer, [10.0, 10.0, 99.0, 10.0])
        assert sorted(tracer.traces) == [0, 2]  # seq 0 sampled, seq 2 violator
        assert tracer.traces[2].slo_violated
        assert not tracer.traces[0].slo_violated

    @pytest.mark.parametrize("slo_latency_us", [None, 50.0], ids=["no-slo", "slo"])
    @pytest.mark.parametrize("sample_every", [1, 2, 3, 7, 1000])
    def test_retained_is_every_nth_plus_every_violator(self, sample_every, slo_latency_us):
        # Retention against its definition: a request is kept when its
        # sequence number is a multiple of sample_every or when it violates
        # the SLO; without an SLO only the sampling rule applies.
        latencies = [float(x) for x in np.random.default_rng(sample_every).uniform(0, 100, 60)]
        tracer = Tracer(
            TracingConfig(enabled=True, sample_every=sample_every),
            slo_latency_us=slo_latency_us,
        )
        self._run_requests(tracer, latencies)
        expected = [
            i
            for i, latency in enumerate(latencies)
            if i % sample_every == 0
            or (slo_latency_us is not None and latency > slo_latency_us)
        ]
        assert sorted(tracer.traces) == expected
        assert all(
            trace.slo_violated == (slo_latency_us is not None and latencies[i] > slo_latency_us)
            for i, trace in tracer.traces.items()
        )
        counters = tracer.counters()
        assert counters["requests_retained"] == len(expected)
        assert counters["requests_sampled_out"] == len(latencies) - len(expected)

    def test_bounded_sink_evicts_oldest(self):
        tracer = Tracer(TracingConfig(enabled=True, max_requests=2))
        self._run_requests(tracer, [10.0] * 5)
        assert sorted(tracer.traces) == [3, 4]
        counters = tracer.counters()
        assert counters["requests_evicted"] == 3
        # Conservation: retained counts retention decisions, not residency.
        assert counters["requests_retained"] == 5
        assert counters["requests_started"] == counters["requests_ended"] == 5


# ------------------------------------------------------- single-host serving
class TestSingleHostServing:
    @pytest.fixture(scope="class")
    def traced_run(self):
        store, eval_trace = build_store_and_trace()
        tracer = Tracer(TracingConfig(enabled=True), slo_latency_us=3000.0)
        report = simulate_serving(
            store,
            eval_trace,
            ServingConfig(
                arrival_rate_rps=4000,
                max_batch_requests=8,
                max_linger_us=300.0,
                slo_latency_us=3000.0,
            ),
            tracing=tracer,
        )
        return store, eval_trace, tracer, report

    def test_every_request_traced_exactly_once(self, traced_run):
        _, _, tracer, report = traced_run
        counters = tracer.counters()
        assert counters["requests_started"] == report.num_requests
        assert counters["requests_ended"] == report.num_requests
        assert counters["requests_retained"] == report.num_requests
        assert sorted(tracer.traces) == list(range(report.num_requests))

    def test_traces_satisfy_structural_invariants(self, traced_run):
        _, _, tracer, _ = traced_run
        assert all_retained_traces_valid(tracer) == []

    def test_stages_tile_the_request_exactly(self, traced_run):
        # batcher.queue + device.queue + device.service + overhead is not an
        # approximation of end-to-end latency: on the simulated clock the
        # four stages tile it exactly, for every request.
        _, _, tracer, _ = traced_run
        for trace in tracer.traces.values():
            staged = stage_total(
                trace,
                STAGE_BATCH_QUEUE,
                STAGE_DEVICE_QUEUE,
                STAGE_DEVICE_SERVICE,
                STAGE_OVERHEAD,
            )
            assert staged == pytest.approx(trace.latency_us, abs=1e-6)

    def test_report_carries_trace_summary(self, traced_run):
        _, _, _, report = traced_run
        assert report.trace is not None
        assert report.trace["counters"]["requests_started"] == report.num_requests
        assert STAGE_DEVICE_SERVICE in report.trace["breakdown_by_stage"]
        assert report.to_dict()["trace"] == report.trace

    def test_disabled_tracing_is_observationally_free(self, traced_run):
        store, eval_trace, _, enabled_report = traced_run
        config = ServingConfig(
            arrival_rate_rps=4000,
            max_batch_requests=8,
            max_linger_us=300.0,
            slo_latency_us=3000.0,
        )
        off_none = simulate_serving(store, eval_trace, config, tracing=None)
        off_config = simulate_serving(
            store, eval_trace, config, tracing=TracingConfig(enabled=False)
        )
        assert off_none.trace is None and off_config.trace is None
        assert off_none.to_dict() == off_config.to_dict()
        # Tracing is purely observational: the enabled run differs from the
        # disabled one only by the trace payload.
        enabled = dict(enabled_report.to_dict())
        disabled = dict(off_none.to_dict())
        enabled.pop("trace")
        disabled.pop("trace")
        assert enabled == disabled


# ------------------------------------------------------------ cluster serving
class TestClusterServing:
    CONFIG = dict(num_nodes=4, replication=2)

    @pytest.fixture(scope="class")
    def crash_run(self):
        tracer = Tracer(TracingConfig(enabled=True), slo_latency_us=2000.0)
        report = run_cluster_scenario(
            1, "crash_recover", ClusterConfig(**self.CONFIG), tracing=tracer
        )
        return tracer, report

    @pytest.fixture(scope="class")
    def healthy_run(self):
        tracer = Tracer(TracingConfig(enabled=True), slo_latency_us=2000.0)
        report = run_cluster_scenario(
            1, "none", ClusterConfig(**self.CONFIG), tracing=tracer
        )
        return tracer, report

    def test_every_request_traced_exactly_once(self, crash_run):
        tracer, report = crash_run
        counters = tracer.counters()
        assert counters["requests_started"] == report.num_requests
        assert counters["requests_ended"] == report.num_requests
        assert counters["requests_retained"] == report.num_requests
        assert sorted(tracer.traces) == list(range(report.num_requests))

    def test_traces_satisfy_structural_invariants(self, crash_run, healthy_run):
        for tracer, _ in (crash_run, healthy_run):
            assert all_retained_traces_valid(tracer) == []

    def test_report_carries_trace_summary(self, crash_run):
        tracer, report = crash_run
        assert report.trace is not None
        assert report.trace["counters"] == tracer.counters()
        assert report.to_dict()["trace"] == report.trace

    def test_crash_tail_attributed_to_failover_not_device(
        self, crash_run, healthy_run
    ):
        # The acceptance criterion: with R=2, a crash inflates p999 and the
        # traces say *why* — the slow requests burn their time on crash
        # consequences (timeout/backoff failover spans, plus the queue
        # backlog piling onto the surviving replica), not in node service:
        # the devices are no slower, the paths to them are.
        crash_tracer, crash_report = crash_run
        healthy_tracer, healthy_report = healthy_run
        assert crash_report.latency.p999_us > healthy_report.latency.p999_us
        failover_stages = (
            STAGE_ATTEMPT_TIMEOUT,
            STAGE_ATTEMPT_LINK_LOSS,
            STAGE_BACKOFF,
        )
        for trace in healthy_tracer.traces.values():
            assert stage_total(trace, *failover_stages) == pytest.approx(0.0)
        # Failover spans exist, and every request that hit the dead node
        # spent more on failover than on the service it finally got.
        failed_over = [
            trace
            for trace in crash_tracer.traces.values()
            if stage_total(trace, *failover_stages) > 0.0
        ]
        assert failed_over
        for trace in failed_over:
            assert stage_total(trace, *failover_stages) > stage_total(
                trace, STAGE_NODE_SERVICE
            )
        # And the overall tail is crash-shaped: in each of the slowest
        # traces, failover burn plus replica queue backlog dwarfs device
        # service time.
        for trace in crash_tracer.slowest_requests(3):
            crash_cost_us = stage_total(
                trace, *failover_stages
            ) + stage_total(trace, STAGE_NODE_QUEUE)
            assert crash_cost_us > stage_total(trace, STAGE_NODE_SERVICE)

    def test_hedge_accounting_is_conserved(self):
        # Launched-but-lost hedges are first-class: every launched hedge is
        # either won or lost, and the hedge.won spans in a fully-sampled
        # trace set agree with the counter.
        tracer = Tracer(TracingConfig(enabled=True), slo_latency_us=2000.0)
        report = run_cluster_scenario(
            1,
            "slow_node",
            ClusterConfig(**self.CONFIG),
            overrides=dict(start_s=0.005, duration_s=0.03, multiplier=20.0),
            tracing=tracer,
        )
        c = report.counters
        assert c.hedges_launched > 0
        assert c.hedges_launched == c.hedges_won + c.hedges_lost
        won_spans = sum(
            1
            for trace in tracer.traces.values()
            for span in trace.spans
            if span.name == STAGE_HEDGE_WON
        )
        assert won_spans == c.hedges_won


# ----------------------------------------------------- metrics-fix satellites
class TestReportSatellites:
    def test_depth_bucket_zero_bucket_is_exact(self):
        depths = [0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 8.0]
        assert [depth_bucket(d) for d in depths] == [0, 0, 1, 1, 2, 4, 8]

    def test_depth_bucket_no_idle_no_zero_bucket(self):
        # Only an idle device (depth 0) lands in the exact 0 bucket.
        assert {depth_bucket(d) for d in (0.5, 1.0, 2.0)} == {1, 2}

    def test_percentile_min_samples_ranks(self):
        assert percentile_min_samples(50.0) == 2
        assert percentile_min_samples(95.0) == 20
        assert percentile_min_samples(99.0) == 100
        assert percentile_min_samples(99.9) == 1000
        with pytest.raises(ValueError):
            percentile_min_samples(100.0)

    def test_latency_summary_flags_unsupported_tails(self):
        short = LatencySummary.from_samples(np.arange(1, 51, dtype=np.float64))
        assert short.samples == 50
        assert short.unsupported_percentiles() == ["p99_us", "p999_us"]
        long = LatencySummary.from_samples(np.arange(1, 1001, dtype=np.float64))
        assert long.samples == 1000
        assert long.unsupported_percentiles() == []
        empty = LatencySummary.from_samples(np.array([]))
        assert empty.samples == 0
        assert empty.unsupported_percentiles() == [
            "p50_us",
            "p95_us",
            "p99_us",
            "p999_us",
        ]

    def test_latency_summary_dict_carries_sample_metadata(self):
        summary = LatencySummary.from_samples(np.arange(1, 31, dtype=np.float64))
        doc = summary.to_dict()
        assert doc["samples"] == 30
        assert doc["unsupported_percentiles"] == ["p99_us", "p999_us"]


# ------------------------------------------------------------- lint coverage
class TestLintCoverage:
    def test_tracing_package_is_not_wall_clock_allowlisted(self):
        # repro.tracing runs on the simulated clock; R2 must keep flagging
        # any wall-clock read that sneaks into it.
        assert not any(
            mod.startswith("repro.tracing") for mod in WALL_CLOCK_ALLOWED_MODULES
        )
        bad = "import time\nnow = time.time()\n"
        result = lint_source(bad, "src/repro/tracing/tracer.py")
        assert [v.rule for v in result.violations] == ["R2"]

    def test_tracing_config_is_a_validated_config_class(self):
        assert "TracingConfig" in CONFIG_CLASSES
