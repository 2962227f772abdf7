"""The event-driven serving front-end: arrivals → batcher → backend → latency.

:func:`simulate_serving` is the serving-side sibling of
:func:`repro.simulation.simulate_store`: instead of replaying a trace as fast
as Python allows and reporting counters, it replays the *same* request stream
on a simulated clock under an arrival process and reports what a user would
see — end-to-end latency percentiles, sustained throughput and SLO
violations — with the device's slot schedule turning load into queueing
delay (paper Figure 5).

There is one event loop, :func:`serve_request_stream`, driven by an *arrival
source* and served by a *backend*.  One step per dispatched batch:

1. the arrival source (:class:`~repro.serving.arrivals.ArrivalSource`)
   cuts the batch's members and dispatch time off its pending-arrivals heap
   under the dynamic batcher's size/linger cutoffs; every response is handed
   back to it, and under closed-loop arrivals it schedules that client's
   next request (a client's next request exists only after its previous
   response);
2. the backend serves the batch.  The single-host backend sheds requests
   whose wait for a free slot on a table's device already exceeds
   ``admission_queue_slack ×`` the table's SLO (a fast rejection that does no cache or device work,
   mirroring the cluster tier's queue-level shedding), fans the survivors
   out through the store, and charges the store's miss counters — the
   batch's NVM block reads — on the host's
   :class:`~repro.device.bank.NVMDeviceBank` of ``devices_per_host`` devices:
   each device the batch touches is served once, with the summed misses of
   the tables pinned to it (:meth:`~repro.device.bank.NVMDeviceBank.serve_blocks`).
   The cluster backend (:func:`repro.cluster.run_scenario`, unbatched) hands
   each request to :meth:`~repro.cluster.store.ClusterStore.serve_request`
   at its own arrival;
3. every request's latency is ``completion − arrival +``
   :data:`REQUEST_OVERHEAD_US`, whichever the backend: served requests
   complete with their batch (or their slowest shard group), shed ones at
   dispatch.

The cache counters the store accumulates are bit-identical to a plain
:func:`~repro.simulation.simulate_store` replay of the same requests — the
front-end only re-times (and under shedding, skips) the exact same work.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bandana import BandanaStore
from repro.core.config import ServingConfig, TracingConfig
from repro.device.bank import NVMDeviceBank
from repro.device.clock import DeviceServiceRecord
from repro.nvm.latency import NVMLatencyModel
from repro.serving.arrivals import ArrivalSource, cut_batch
from repro.serving.report import LatencySummary, ServingReport
from repro.tracing.tracer import (
    STAGE_BATCH_QUEUE,
    STAGE_OVERHEAD,
    STAGE_REQUEST_SHED,
    Tracer,
    resolve_tracer,
)
from repro.utils.validation import check_int_at_least
from repro.workloads.trace import ModelTrace

if TYPE_CHECKING:  # repro.cluster imports this package; import only for types
    from repro.cluster.store import ClusterStore

Request = Dict[str, np.ndarray]
#: Fixed non-device latency added to every request (queueing-free front-end
#: compute: pooling, RPC framing; a cluster request's fan-in).  The serving
#: loop adds it once, for either backend.
REQUEST_OVERHEAD_US = 5.0


def simulate_serving(
    store: BandanaStore,
    eval_trace: ModelTrace,
    config: Optional[ServingConfig] = None,
    num_requests: Optional[int] = None,
    reset_first: bool = True,
    tracing: Optional["TracingConfig | Tracer"] = None,
) -> ServingReport:
    """Serve a model trace through a single-host store under an arrival process.

    Parameters
    ----------
    store:
        A built :class:`~repro.core.bandana.BandanaStore`.
    eval_trace:
        Per-table queries, zipped into multi-table requests by
        :meth:`~repro.workloads.trace.ModelTrace.requests` (request ``i``
        reads every table's ``i``-th query).  A table the store lacks raises
        ``KeyError`` before anything is reset or served.
    config:
        Serving knobs; defaults to ``ServingConfig()``.  Beyond the
        arrival/batching knobs this sizes the host's device bank
        (``config.devices_per_host``) and sets single-host admission control
        (``config.admission_queue_slack``).
    num_requests:
        Optional cap on the number of requests served (the default serves
        the whole zipped stream); must be ``>= 0``.
    reset_first:
        Clear the store's serving state first so runs start cold and are
        reproducible, like the paper's experiments.
    tracing:
        Per-request span tracing (:mod:`repro.tracing`): a
        :class:`~repro.core.config.TracingConfig` builds a fresh tracer
        (when enabled), an existing :class:`~repro.tracing.Tracer` is used
        as-is (tests pass one in to inspect raw spans), ``None`` (the
        default) disables tracing.  When enabled,
        every request's latency decomposes into ``batcher.queue`` →
        ``device.queue`` → ``device.service`` → ``overhead`` spans (shed
        requests record a ``request.shed`` marker instead of device spans)
        and the report
        carries the tracer's JSON summary in ``report.trace``.  Tracing
        never changes behavior.
    """
    config = config or ServingConfig()
    tracer = resolve_tracer(tracing, slo_latency_us=config.slo_latency_us)
    store.check_tables(eval_trace)
    _, requests = cut_request_stream(eval_trace, num_requests)
    if reset_first:
        store.reset_serving_state()
    return serve_request_stream(store, requests, config, tracer)


def cut_request_stream(
    eval_trace: ModelTrace,
    num_requests: Optional[int],
    warmup_requests: int = 0,
) -> Tuple[List[Request], List[Request]]:
    """Zip a trace into requests and cut its ``(warm-up, measured)`` streams.

    The first ``warmup_requests`` requests are the warm-up prefix, the next
    ``num_requests`` (everything left when ``None``) the measured run.  This
    is the one place a request stream is cut, so both counts are validated
    here: a negative count would slice from the tail instead of failing.
    """
    warmup = check_int_at_least(warmup_requests, 0, "warmup_requests")
    stop: Optional[int] = None
    if num_requests is not None:
        stop = warmup + check_int_at_least(num_requests, 0, "num_requests")
    stream = list(eval_trace.requests())
    return stream[:warmup], stream[warmup:stop]


# ------------------------------------------------------------------ backends
class _HostBackend:
    """Single-host backend: admission control, store fan-out, bank charging.

    Keeps every device serve record the bank returns, in serve order — the
    report's queue-depth statistics.
    """

    def __init__(
        self,
        store: BandanaStore,
        config: ServingConfig,
        tracer: Tracer,
    ) -> None:
        self.store = store
        self.config = config
        self.tracer = tracer
        self.bank = NVMDeviceBank(
            num_devices=config.devices_per_host,
            latency_model=NVMLatencyModel(block_bytes=store.config.block_bytes),
            tables=list(store.tables),
        )
        self.records: List[DeviceServiceRecord] = []
        self.requests_shed = 0

    def serve(
        self,
        requests: List[Request],
        members: List[int],
        arrival_us: np.ndarray,
        dispatch_us: float,
        batch_index: int,
    ) -> List[Tuple[int, float]]:
        """Serve one batch; ``(request, completion_us)`` in response order.

        Shed requests are answered at dispatch, ahead of the served ones,
        which all complete with the batch's last device read.
        """
        served, shed = _split_shed(
            self.bank, requests, members, dispatch_us, self.config
        )
        self.requests_shed += len(shed)
        tracer = self.tracer
        if tracer.enabled:
            for i, queue_wait_us in shed:
                _emit_shed_spans(
                    tracer,
                    i,
                    float(arrival_us[i]),
                    batch_index,
                    len(members),
                    dispatch_us,
                    queue_wait_us,
                )
        completion_us, records = _lookup_and_charge(
            self.store, requests, served, dispatch_us, self.bank
        )
        self.records.extend(records)
        if tracer.enabled:
            # Retrospective spans: the batch's timeline is fully known, and
            # with one charged device the four stages tile the latency
            # exactly — batcher.queue + device.queue + device.service +
            # overhead == completion - arrival + REQUEST_OVERHEAD_US.
            for i in served:
                _emit_request_spans(
                    tracer,
                    i,
                    float(arrival_us[i]),
                    batch_index,
                    len(members),
                    dispatch_us,
                    records,
                    completion_us,
                )
        return [(i, dispatch_us) for i, _ in shed] + [(i, completion_us) for i in served]

    def close(self) -> None:
        """Nothing to release: the bank lives and dies with the run."""


class _ClusterBackend:
    """Cluster backend: every member through ``ClusterStore.serve_request``.

    :func:`repro.cluster.run_scenario` runs it unbatched, so each request is
    dispatched at its own arrival; timing inside the store is the cluster's:
    per-shard queueing on each node's device bank, retries, hedges and
    fan-in; like a host batch's, its completion excludes the request
    overhead, which the loop adds.  Each node owns its devices, so there is
    no host bank to report;
    nothing is shed here (the cluster sheds per shard read and counts it
    itself).  The tracer rides along on the store for the duration of the
    run and records each request's full fan-out span tree.
    """

    bank = None
    records: Tuple[DeviceServiceRecord, ...] = ()
    requests_shed = 0

    def __init__(self, cluster: "ClusterStore", tracer: Tracer) -> None:
        self.store = cluster
        cluster.set_tracer(tracer)

    def serve(
        self,
        requests: List[Request],
        members: List[int],
        arrival_us: np.ndarray,
        dispatch_us: float,
        batch_index: int,
    ) -> List[Tuple[int, float]]:
        """Serve one batch; ``(request, completion_us)`` in response order."""
        return [
            (i, self.store.serve_request(requests[i], now_us=dispatch_us).completion_us)
            for i in members
        ]

    def close(self) -> None:
        self.store.set_tracer(None)


# ------------------------------------------------------------- the event loop
def serve_request_stream(
    store: BandanaStore,
    requests: List[Request],
    config: ServingConfig,
    tracer: Tracer,
    cluster: Optional["ClusterStore"] = None,
) -> ServingReport:
    """The one serving event loop: arrival source × backend (see module doc).

    :func:`simulate_serving` and :func:`repro.cluster.run_scenario` both end
    here.  The source draws ``config.arrival_process``; the backend is the
    host's device bank, or ``cluster`` when given — then the
    device-side report fields (queue-depth histogram, ``device_bank``) stay
    empty, and ``store`` only supplies the seed default.
    """
    n = len(requests)
    seed = store.config.seed if config.seed is None else config.seed
    source = ArrivalSource(config, n, seed)
    backend: Union[_HostBackend, _ClusterBackend] = (
        _HostBackend(store, config, tracer)
        if cluster is None
        else _ClusterBackend(cluster, tracer)
    )
    stats_before = backend.store.aggregate_stats()

    arrival_us = np.empty(n, dtype=np.float64)
    latencies = np.empty(n, dtype=np.float64)
    batch_sizes: List[int] = []
    last_completion_us = 0.0
    next_index = 0
    try:
        while next_index < n:
            arrivals, dispatch_us = cut_batch(
                source.pending, config.max_batch_requests, config.max_linger_us
            )
            start, next_index = next_index, next_index + len(arrivals)
            members = list(range(start, next_index))
            arrival_us[start:next_index] = arrivals
            completions = backend.serve(
                requests, members, arrival_us, dispatch_us, len(batch_sizes)
            )
            batch_sizes.append(len(members))
            for i, completion_us in completions:
                latencies[i] = completion_us - arrival_us[i] + REQUEST_OVERHEAD_US
                last_completion_us = max(last_completion_us, completion_us)
            source.respond([done + REQUEST_OVERHEAD_US for _, done in completions])
    finally:
        backend.close()

    stats_after = backend.store.aggregate_stats()
    return _assemble_report(
        config=config,
        offered_rate_rps=source.offered_rate_rps,
        arrival_us=arrival_us,
        latencies=latencies,
        batch_sizes=np.asarray(batch_sizes, dtype=np.int64),
        last_completion_us=last_completion_us,
        lookups=int(stats_after.lookups - stats_before.lookups),
        hits=int(stats_after.hits - stats_before.hits),
        blocks_read=int(stats_after.misses - stats_before.misses),
        requests_shed=backend.requests_shed,
        bank=backend.bank,
        records=backend.records,
        tracer=tracer,
    )


# ------------------------------------------------------------------- helpers
def _split_shed(
    bank: NVMDeviceBank,
    requests: List[Dict[str, np.ndarray]],
    members: List[int],
    dispatch_us: float,
    config: ServingConfig,
) -> Tuple[List[int], List[Tuple[int, float]]]:
    """Partition a batch's members into served and ``(shed, wait_us)``.

    A request is shed when the wait for a free slot on *any* of its tables'
    devices exceeds ``admission_queue_slack × slo_latency_us`` — the single-host port of
    the cluster's queue-level admission check (there per shard read, here
    per request: a single host has no other replica to serve the rest).
    ``wait_us`` is the longest of those waits, the one that shed it.
    """
    slack = config.admission_queue_slack
    if slack is None:
        return members, []
    bound_us = slack * config.slo_latency_us
    served: List[int] = []
    shed: List[Tuple[int, float]] = []
    for i in members:
        wait_us = max(bank.queue_wait_us(dispatch_us, name) for name in requests[i])
        if wait_us > bound_us:
            shed.append((i, wait_us))
        else:
            served.append(i)
    return served, shed


def _lookup_and_charge(
    store: BandanaStore,
    requests: List[Request],
    served: List[int],
    dispatch_us: float,
    bank: NVMDeviceBank,
) -> Tuple[float, List[DeviceServiceRecord]]:
    """Fan a batch out through the store and charge its misses on the bank.

    Each table's miss delta goes to :meth:`NVMDeviceBank.serve_blocks`,
    which serves every touched device once; the batch completes at the max
    over those records (reads overlap across devices).  A batch whose
    members were all shed does no cache work and never visits a device.
    """
    per_table: Dict[str, List[np.ndarray]] = {}
    for i in served:
        for name, ids in requests[i].items():
            per_table.setdefault(name, []).append(ids)
    # gather=False: the simulator measures load and latency, not data —
    # embedding gathers would cost per-lookup work whose result is unused.
    misses: Dict[str, int] = {}
    for name, queries in per_table.items():
        misses_before = store.tables[name].stats.misses
        store.lookup_batch(name, queries, gather=False)
        misses[name] = store.tables[name].stats.misses - misses_before
    records = bank.serve_blocks(dispatch_us, misses)
    completion_us = max((r.completion_us for r in records), default=dispatch_us)
    return completion_us, records


def _emit_request_spans(
    tracer: Tracer,
    request_id: int,
    arrival_us: float,
    batch_index: int,
    batch_size: int,
    dispatch_us: float,
    records: List[DeviceServiceRecord],
    completion_us: float,
) -> None:
    """One served request's span tree (single-host backend).

    ``batcher.queue`` → per-device ``device.queue``/``device.service``
    (emitted by the shared device layer; parallel siblings when the batch
    charged several devices) → ``overhead``.  With a single charged device
    the four stages tile the latency exactly.
    """
    tracer.begin_request(request_id, arrival_us)
    tracer.span(
        request_id,
        STAGE_BATCH_QUEUE,
        arrival_us,
        dispatch_us,
        batch=batch_index,
        batch_size=batch_size,
    )
    parallel = len(records) > 1
    for record in records:
        NVMDeviceBank.emit_device_spans(
            tracer, request_id, record, parallel=parallel
        )
    tracer.span(
        request_id,
        STAGE_OVERHEAD,
        completion_us,
        completion_us + REQUEST_OVERHEAD_US,
    )
    tracer.end_request(request_id, completion_us + REQUEST_OVERHEAD_US)


def _emit_shed_spans(
    tracer: Tracer,
    request_id: int,
    arrival_us: float,
    batch_index: int,
    batch_size: int,
    dispatch_us: float,
    queue_wait_us: float,
) -> None:
    """A shed request's span tree: batcher wait, shed marker, overhead."""
    tracer.begin_request(request_id, arrival_us)
    tracer.span(
        request_id,
        STAGE_BATCH_QUEUE,
        arrival_us,
        dispatch_us,
        batch=batch_index,
        batch_size=batch_size,
    )
    tracer.span(
        request_id,
        STAGE_REQUEST_SHED,
        dispatch_us,
        dispatch_us,
        queue_wait_us=queue_wait_us,
    )
    responded_us = dispatch_us + REQUEST_OVERHEAD_US
    tracer.span(request_id, STAGE_OVERHEAD, dispatch_us, responded_us)
    tracer.end_request(request_id, responded_us, degraded=True)


def _assemble_report(
    config: ServingConfig,
    offered_rate_rps: float,
    arrival_us: np.ndarray,
    latencies: np.ndarray,
    batch_sizes: np.ndarray,
    last_completion_us: float,
    lookups: int,
    hits: int,
    blocks_read: int,
    requests_shed: int,
    bank: Optional[NVMDeviceBank],
    records: Sequence[DeviceServiceRecord],
    tracer: Tracer,
) -> ServingReport:
    """Condense one run into a :class:`ServingReport` (``bank=None``: cluster)."""
    n = int(latencies.size)
    makespan_us = last_completion_us - float(arrival_us[0]) if n else 0.0
    makespan_s = makespan_us / 1e6
    depth_hist: Counter[int] = Counter()
    if bank is not None:
        for device in bank.devices:
            depth_hist.update(device.depth_hist)
    depths = np.array([r.queue_depth for r in records], dtype=np.float64)

    return ServingReport(
        num_requests=n,
        num_batches=int(batch_sizes.size),
        offered_rate_rps=offered_rate_rps,
        throughput_rps=n / makespan_s if makespan_s > 0 else 0.0,
        makespan_s=makespan_s,
        latency=LatencySummary.from_samples(latencies),
        slo_latency_us=config.slo_latency_us,
        slo_violations=int(np.count_nonzero(latencies > config.slo_latency_us)),
        mean_batch_size=float(batch_sizes.mean()) if batch_sizes.size else 0.0,
        batch_size_hist={
            int(size): int(count)
            for size, count in zip(*np.unique(batch_sizes, return_counts=True))
        },
        mean_queue_depth=float(depths.mean()) if depths.size else 0.0,
        max_queue_depth=float(depths.max()) if depths.size else 0.0,
        queue_depth_hist=dict(sorted(depth_hist.items())),
        blocks_read=blocks_read,
        lookups=lookups,
        hit_rate=hits / lookups if lookups else 0.0,
        requests_shed=requests_shed,
        device_bank=bank.snapshot() if bank is not None else None,
        trace=tracer.summary() if tracer.enabled else None,
    )
