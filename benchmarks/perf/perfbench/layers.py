"""Per-layer metrics of one traced run.

``*_host_s`` is wall time of the spans of that name (inclusive of the layers
they call), ``*_self_host_s`` is self time (inclusive minus children),
``*_sim_us`` is the simulated clock, and everything else is a count or a
ratio of counts.  A layer the workload never enters reads 0.

The numbers describe the traced *region*.  The traced set-up adds only the
layers that exist to produce inputs or a store (:data:`_SETUP_METRICS`), so
that trace synthesis and, on the serve workloads, the build show up next to
``setup_s`` without the tuner's replays diluting the engine's serving counts.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from perfbench.spans import SpanRecorder

#: Root spans the benchmark opens around its own set-up and timed region.
SETUP_ROOT = "harness.setup"
REGION_ROOT = "harness.region"
#: The span of the timing reference kernel, which belongs to no layer.
KERNEL_SPAN = "harness.kernel"

#: Metric name -> (span name, which total of it).
_SPAN_METRICS = {
    "workloads.synth_host_s": ("workloads.synth", "total_s"),
    "scenarios.generate_host_s": ("scenarios.generate", "total_s"),
    "scenarios.runner_self_host_s": ("scenarios.runner", "self_s"),
    "scenarios.observe_self_host_s": ("scenarios.observe", "self_s"),
    "scenarios.swap_layout_host_s": ("scenarios.swap_layout", "total_s"),
    "partitioning.shp_host_s": ("partitioning.shp", "total_s"),
    "partitioning.shp_calls": ("partitioning.shp", "calls"),
    "caching.hit_rate_curve_host_s": ("caching.hit_rate_curve", "total_s"),
    "caching.allocation_host_s": ("caching.allocation", "total_s"),
    "caching.miniature_tune_host_s": ("caching.miniature_tune", "total_s"),
    "caching.engine.replay_self_host_s": ("caching.engine.replay", "self_s"),
    "caching.engine.replay_calls": ("caching.engine.replay", "calls"),
    "core.build_self_host_s": ("core.build", "self_s"),
    "core.store_self_host_s": ("core.store", "self_s"),
    "core.lookup_calls": ("core.store", "calls"),
    "simulation.simulate_store_self_host_s": ("simulation.simulate_store", "self_s"),
    "simulation.unlimited_self_host_s": ("simulation.unlimited", "self_s"),
    "device.serve_self_host_s": ("device.serve", "self_s"),
    "serving.frontend_self_host_s": ("serving.frontend", "self_s"),
    "cluster.build_host_s": ("cluster.build", "total_s"),
    "cluster.ring_block_owners_host_s": ("cluster.ring_block_owners", "total_s"),
    "cluster.run_scenario_self_host_s": ("cluster.run_scenario", "self_s"),
    "cluster.serve_request_self_host_s": ("cluster.serve_request", "self_s"),
    "cluster.node_serve_self_host_s": ("cluster.node_serve", "self_s"),
    "harness.self_host_s": (REGION_ROOT, "self_s"),
}

#: Metrics that are a probe counter of the same name.
_COUNTER_METRICS = (
    "workloads.synth_lookups",
    "partitioning.shp_vectors",
    "caching.miniature_candidates",
    "caching.engine.lookups",
    "caching.engine.hits",
    "caching.engine.block_reads",
    "caching.engine.prefetch_admitted",
    "caching.engine.prefetch_hits",
    "caching.engine.evictions",
    "nvm.block_reads",
    "device.serve_calls",
)

#: Metrics the workload reads off its region's own report (0 when it has none).
_FACT_METRICS = (
    "serving.batches",
    "serving.batch_size_mean",
    "serving.requests_shed",
    "scenarios.retrains",
    "scenarios.layout_churn_mean",
    "cluster.shard_groups_per_request",
    "cluster.shard_attempts",
    "cluster.timeouts",
    "cluster.retries",
    "cluster.hedges_launched",
    "cluster.hedge_win_share",
    "cluster.breaker_ejections",
    "cluster.sheds",
    "cluster.request_p99_sim_us",
)

#: Metrics to which the traced set-up contributes as well as the region.
_SETUP_METRICS = (
    "workloads.synth_host_s",
    "workloads.synth_lookups",
    "scenarios.generate_host_s",
    "partitioning.shp_host_s",
    "partitioning.shp_calls",
    "partitioning.shp_vectors",
    "caching.hit_rate_curve_host_s",
    "caching.allocation_host_s",
    "caching.miniature_tune_host_s",
    "caching.miniature_candidates",
    "core.build_self_host_s",
)


Totals = Dict[str, Dict[str, float]]
_ZERO = {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _recorded(recorder: SpanRecorder, totals: Totals) -> Dict[str, float]:
    """The metrics that read straight off one recorder's spans and counters."""
    metrics: Dict[str, float] = {
        name: totals.get(span, _ZERO)[field]
        for name, (span, field) in _SPAN_METRICS.items()
    }
    metrics.update({name: recorder.counters.get(name, 0) for name in _COUNTER_METRICS})
    return metrics


def layer_metrics(
    region: SpanRecorder,
    setup: SpanRecorder,
    facts: Mapping[str, float],
    sim_stage_means_us: Mapping[str, float],
    makespan_us: float,
    devices: int,
) -> Dict[str, float]:
    """Everything the host spans, the probes and the region's report give."""
    totals = region.totals()
    counters = region.counters
    metrics = _recorded(region, totals)
    from_setup = _recorded(setup, setup.totals())
    for name in _SETUP_METRICS:
        metrics[name] += from_setup[name]

    metrics["caching.engine.prefetch_useful_share"] = _ratio(
        metrics["caching.engine.prefetch_hits"], metrics["caching.engine.prefetch_admitted"]
    )
    metrics["caching.engine.host_lookups_per_s"] = _ratio(
        metrics["caching.engine.lookups"], metrics["caching.engine.replay_self_host_s"]
    )
    metrics["nvm.read_latency_sim_us_mean"] = _ratio(
        counters.get("nvm.read_latency_sim_us", 0.0), metrics["nvm.block_reads"]
    )

    serves = metrics["device.serve_calls"]
    metrics["device.busy_share_sim"] = _ratio(
        counters.get("device.busy_sim_us", 0.0), makespan_us * devices
    )
    metrics["device.queue_wait_sim_us_mean"] = _ratio(
        counters.get("device.queue_wait_sim_us", 0.0), serves
    )
    metrics["device.service_sim_us_mean"] = _ratio(
        counters.get("device.busy_sim_us", 0.0), serves
    )
    metrics["device.queue_depth_mean"] = _ratio(counters.get("device.queue_depth", 0.0), serves)

    metrics.update({name: facts.get(name, 0) for name in _FACT_METRICS})
    metrics["serving.batcher_queue_sim_us_mean"] = sim_stage_means_us.get("batcher.queue", 0.0)
    metrics["cluster.node_queue_sim_us_mean"] = sim_stage_means_us.get("node.queue", 0.0)
    metrics["serving.host_requests_per_s"] = _ratio(
        facts.get("serving.requests", 0),
        totals.get("serving.frontend", _ZERO)["total_s"],
    )
    metrics["cluster.host_requests_per_s"] = _ratio(
        facts.get("cluster.requests", 0),
        totals.get("cluster.run_scenario", _ZERO)["total_s"],
    )
    return metrics


def region_coverage(recorder: SpanRecorder) -> float:
    """Share of the traced region's wall time that named layers account for."""
    totals = recorder.totals()
    region = totals[REGION_ROOT]
    return 1.0 - _ratio(region["self_s"], region["total_s"] - totals[KERNEL_SPAN]["total_s"])


def stage_means_us(tracer: Any) -> Dict[str, float]:
    """Mean simulated duration per stage from the repo's own request tracer."""
    if tracer is None:
        return {}
    return {
        stage: row["mean_us"] for stage, row in tracer.breakdown_by_stage().items()
    }
