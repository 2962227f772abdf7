"""Fault-scenario runner: one request stream, one schedule, one report.

:func:`run_scenario` is the cluster tier's entry point onto the shared
serving loop: it replays a model trace through a
:class:`~repro.cluster.store.ClusterStore` under an open-loop arrival
process while a :class:`~repro.cluster.faults.FaultSchedule` degrades the
cluster, and returns the :class:`~repro.serving.report.ServingReport` a host
run would — latency percentiles (fan-in makes stragglers land in p999),
throughput, SLO misses — plus the robustness counters (``counters``:
retries, timeouts, sheds, hedges, breaker ejections, cold restarts,
availability) and the per-node block reads (``node_blocks_read``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Union

from repro.cluster.faults import FaultSchedule, make_scenario
from repro.cluster.store import ClusterStore
from repro.core.bandana import BandanaStore
from repro.core.config import ClusterConfig, ServingConfig, TracingConfig
from repro.serving.frontend import cut_request_stream, serve_request_stream
from repro.serving.report import ServingReport
from repro.tracing.tracer import Tracer, resolve_tracer
from repro.workloads.trace import ModelTrace


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
) -> ServingReport:
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
        Topology/robustness knobs; defaults to ``ClusterConfig()``.
    serving_config:
        Arrival process and SLO, and each node's bank size and admission
        rule (``devices_per_host``, ``admission_queue_slack``); defaults to
        ``ServingConfig()``.  The batcher
        knobs do not apply: a cluster serves unbatched.
    num_requests:
        Optional cap on the measured request stream; must be ``>= 0``.
    scenario_overrides:
        Knobs forwarded to the scenario factory: the window (``start_s``,
        ``duration_s``) and the swept severity (``multiplier``,
        ``loss_prob``); see :func:`~repro.cluster.faults.make_scenario`.
        An explicit schedule takes none: passing any raises ``ValueError``.
    warmup_requests:
        Requests (``>= 0``, at most the trace's) replayed sequentially (and
        excluded from every reported number) before the measured run, after
        which the cluster's clocks rebase to zero with warm caches — without
        this the cold-start miss surge dominates every percentile and masks
        the fault's tail cost.
    tracing:
        Per-request span tracing (:mod:`repro.tracing`): a
        :class:`~repro.core.config.TracingConfig` (enabled) or an existing
        :class:`~repro.tracing.Tracer`; ``None`` (the default) disables
        tracing.  The tracer attaches *after*
        the warm-up and clock rebase, so it sees exactly the measured
        requests (ids ``0..n-1``) and the conservation invariant — every
        measured arrival in exactly one completed/degraded trace — is
        testable.  The report then carries the tracer's JSON summary in
        ``report.trace``.
    """
    cluster_config = cluster_config or ClusterConfig()
    serving_config = serving_config or ServingConfig()
    if isinstance(scenario, FaultSchedule):
        if scenario_overrides:
            raise ValueError(
                "scenario_overrides apply to catalog scenarios only; an explicit "
                f"FaultSchedule would ignore {sorted(scenario_overrides)}"
            )
        faults = scenario
    else:
        faults = make_scenario(
            scenario, cluster_config.num_nodes, **dict(scenario_overrides or {})
        )
    cluster = ClusterStore.from_store(store, cluster_config, faults, serving_config)

    warmup, requests = cut_request_stream(eval_trace, num_requests, warmup_requests)
    if warmup:
        cluster.replay_requests(warmup)
        cluster.rebase_clocks()
    node_blocks_before = cluster.node_blocks_read()

    # Attached after warm-up + rebase: the tracer sees only the measured
    # requests, whose ids restart at 0 with the rebased counters.
    tracer = resolve_tracer(tracing, slo_latency_us=serving_config.slo_latency_us)
    # The measured run is the shared serving loop on the cluster backend,
    # unbatched: every request is dispatched at its own arrival.
    served = serve_request_stream(
        store,
        requests,
        replace(serving_config, max_batch_requests=1, max_linger_us=0.0),
        tracer,
        cluster=cluster,
    )
    return replace(
        served,
        counters=cluster.counters,
        node_blocks_read=[
            after - before
            for after, before in zip(cluster.node_blocks_read(), node_blocks_before)
        ],
    )
