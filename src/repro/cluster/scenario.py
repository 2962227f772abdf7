"""Fault-scenario runner: one request stream, one schedule, one report.

:func:`run_scenario` is the cluster-side sibling of
:func:`repro.serving.simulate_serving`: it replays a model trace through a
:class:`~repro.cluster.store.ClusterStore` under an open-loop arrival
process while a :class:`~repro.cluster.faults.FaultSchedule` degrades the
cluster, and condenses what happened into a :class:`ClusterReport` —
end-to-end latency percentiles (fan-in makes stragglers land in p999),
availability (fraction of requests with every shard group served), and the
full robustness counter set (retries, timeouts, sheds, hedges, breaker
ejections, cold restarts).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Union

from repro.cluster.faults import FaultSchedule, make_scenario
from repro.cluster.store import ClusterCounters, ClusterStore
from repro.core.bandana import BandanaStore
from repro.core.config import ClusterConfig, ServingConfig, TracingConfig
from repro.serving.frontend import cut_request_stream, serve_request_stream
from repro.serving.report import LatencySummary
from repro.tracing.tracer import Tracer, resolve_tracer
from repro.workloads.trace import ModelTrace


@dataclass(frozen=True)
class ClusterReport:
    """Everything one fault-scenario run observed."""

    scenario: str
    num_requests: int
    num_nodes: int
    replication: int
    offered_rate_rps: float
    makespan_s: float
    throughput_rps: float
    latency: LatencySummary
    slo_latency_us: float
    slo_violations: int
    availability: float
    counters: ClusterCounters
    lookups: int
    hit_rate: float
    blocks_read: int
    node_blocks_read: List[int]
    #: JSON-ready tracer summary (``repro.tracing``): per-stage breakdown
    #: over the measured run plus the top-K slowest requests' critical
    #: paths.  ``None`` unless the run was traced.
    trace: Optional[Dict[str, object]] = None

    @property
    def slo_violation_rate(self) -> float:
        if self.num_requests == 0:
            return 0.0
        return self.slo_violations / self.num_requests

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (used by the benchmark artifacts)."""
        return {
            "scenario": self.scenario,
            "num_requests": self.num_requests,
            "num_nodes": self.num_nodes,
            "replication": self.replication,
            "offered_rate_rps": self.offered_rate_rps,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency.to_dict(),
            "slo_latency_us": self.slo_latency_us,
            "slo_violations": self.slo_violations,
            "slo_violation_rate": self.slo_violation_rate,
            "availability": self.availability,
            "counters": self.counters.as_dict(),
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "blocks_read": self.blocks_read,
            "node_blocks_read": list(self.node_blocks_read),
            "trace": self.trace,
        }


def run_scenario(
    store: BandanaStore,
    eval_trace: ModelTrace,
    scenario: Union[str, FaultSchedule] = "none",
    cluster_config: Optional[ClusterConfig] = None,
    serving_config: Optional[ServingConfig] = None,
    num_requests: Optional[int] = None,
    scenario_overrides: Optional[Mapping[str, float]] = None,
    warmup_requests: int = 0,
    tracing: Optional["TracingConfig | Tracer"] = None,
) -> ClusterReport:
    """Replay a trace through a fresh fault-injected cluster (see module doc).

    Parameters
    ----------
    store:
        A built single-host store; its resolved placement, policies and
        cache budgets define the cluster's tables
        (:meth:`~repro.cluster.store.ClusterStore.from_store`).
    eval_trace:
        Per-table queries, zipped into multi-table requests exactly like the
        single-host replay and serving paths.
    scenario:
        A catalog name (:data:`~repro.cluster.faults.SCENARIOS`) or an
        explicit :class:`~repro.cluster.faults.FaultSchedule`.
    cluster_config:
        Topology/robustness knobs; defaults to ``store.config.cluster``.
    serving_config:
        Arrival process and SLO; defaults to ``store.config.serving``.
    num_requests:
        Optional cap on the measured request stream; must be ``>= 0``.
    scenario_overrides:
        Extra knobs forwarded to the scenario factory (window, target node,
        severity); ignored for explicit schedules.
    warmup_requests:
        Requests (``>= 0``) replayed sequentially (and excluded from every
        reported number) before the measured run, after which the cluster's
        clocks rebase to zero with warm caches — without this the cold-start
        miss surge dominates every percentile and masks the fault's tail cost.
    tracing:
        Per-request span tracing (:mod:`repro.tracing`): a
        :class:`~repro.core.config.TracingConfig` (enabled) or an existing
        :class:`~repro.tracing.Tracer`; defaults to
        ``store.config.tracing`` — disabled.  The tracer attaches *after*
        the warm-up and clock rebase, so it sees exactly the measured
        requests (ids ``0..n-1``) and the conservation invariant — every
        measured arrival in exactly one completed/degraded trace — is
        testable.  The report then carries the tracer's JSON summary in
        ``report.trace``.
    """
    cluster_config = cluster_config or store.config.cluster
    serving_config = serving_config or store.config.serving
    if isinstance(scenario, FaultSchedule):
        faults, scenario_name = scenario, "custom"
    else:
        faults = make_scenario(
            scenario, cluster_config.num_nodes, **dict(scenario_overrides or {})
        )
        scenario_name = scenario
    cluster = ClusterStore.from_store(store, config=cluster_config, faults=faults)

    warmup, requests = cut_request_stream(eval_trace, num_requests, warmup_requests)
    if warmup:
        cluster.replay_requests(warmup)
        cluster.rebase_clocks()
    node_blocks_before = cluster.node_blocks_read()

    # Attached after warm-up + rebase: the tracer sees only the measured
    # requests, whose ids restart at 0 with the rebased counters.
    tracer = resolve_tracer(
        tracing if tracing is not None else store.config.tracing,
        slo_latency_us=serving_config.slo_latency_us,
    )
    # The measured run is the shared serving loop on the cluster backend,
    # unbatched: every request is dispatched at its own arrival.
    served = serve_request_stream(
        store,
        requests,
        replace(serving_config, max_batch_requests=1, max_linger_us=0.0),
        tracer,
        cluster=cluster,
    )
    return ClusterReport(
        scenario=scenario_name,
        num_requests=served.num_requests,
        num_nodes=cluster_config.num_nodes,
        replication=cluster.replication,
        offered_rate_rps=served.offered_rate_rps,
        makespan_s=served.makespan_s,
        throughput_rps=served.throughput_rps,
        latency=served.latency,
        slo_latency_us=served.slo_latency_us,
        slo_violations=served.slo_violations,
        availability=cluster.counters.availability,
        counters=cluster.counters,
        lookups=served.lookups,
        hit_rate=served.hit_rate,
        blocks_read=served.blocks_read,
        node_blocks_read=[
            after - before
            for after, before in zip(cluster.node_blocks_read(), node_blocks_before)
        ],
        trace=served.trace,
    )

