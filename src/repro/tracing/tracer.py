"""Span records, the tracer, and its bounded in-memory sink.

Everything here runs on the **simulated** clock: a :class:`Span` is a named
``[t_start_us, t_end_us]`` interval on the same microsecond timeline the
serving front-end and the cluster store advance, recorded *retrospectively*
(the simulator knows an interval's end the moment it computes it, so there
is no open-span bookkeeping on the hot path beyond a dict entry).  A trace
is the set of spans of one request, rooted at a ``"request"`` span covering
arrival to completion.

Cost discipline
---------------
Tracing must never perturb a simulation — it reads clocks and counters the
simulation already computed and touches no RNG — and must cost (almost)
nothing when disabled.  Both are structural:

* every instrumentation site guards its span construction with
  ``if tracer.enabled:``, so the disabled path pays one attribute load and
  a branch per site — no allocations, no calls (the shared
  :data:`NULL_TRACER` singleton exists so call sites never need a ``None``
  check, and its recording methods are no-ops should anyone call them);
* the sink is bounded: retention is sampled (every ``sample_every``-th
  request, plus every SLO violator) and capped at ``max_requests``
  retained traces, evicting the oldest retained trace first — a week-long
  simulated run cannot OOM the tracer.

The SLO-violator override is what makes the sink useful for tail debugging:
p999 regressions live in a handful of requests, and uniform sampling at a
rate that keeps memory bounded would almost surely miss all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import TracingConfig

# ---------------------------------------------------------------------- stages
#: Root span of every request trace (arrival -> completion).
STAGE_REQUEST = "request"
#: Front-end dispatch wait: arrival -> batch dispatch (queue wait + linger).
STAGE_BATCH_QUEUE = "batcher.queue"
#: Single-host device slot wait: batch dispatch -> first read's start.
STAGE_DEVICE_QUEUE = "device.queue"
#: Single-host device service: first read's start -> last read's end.
STAGE_DEVICE_SERVICE = "device.service"
#: Fixed per-request front-end overhead (pooling, RPC framing).
STAGE_OVERHEAD = "overhead"
#: One shard group's fan-out interval (cluster path).
STAGE_SHARD_GROUP = "shard_group"
#: A shard attempt that served the read.
STAGE_ATTEMPT_OK = "attempt.ok"
#: A shard attempt that burned the shard timeout (crashed node).
STAGE_ATTEMPT_TIMEOUT = "attempt.timeout"
#: A shard attempt lost on a degraded link (also burns the timeout).
STAGE_ATTEMPT_LINK_LOSS = "attempt.link_loss"
#: A shard attempt the node shed at admission (fast rejection round trip).
STAGE_ATTEMPT_SHED = "attempt.shed"
#: A replica skipped without cost because its circuit breaker was open.
STAGE_ATTEMPT_BREAKER_SKIP = "attempt.breaker_skip"
#: Retry backoff between attempts.
STAGE_BACKOFF = "backoff"
#: Queue wait on the serving node's FIFO clock (inside an attempt).
STAGE_NODE_QUEUE = "node.queue"
#: Service time on the serving node (inside an attempt).
STAGE_NODE_SERVICE = "node.service"
#: A hedged read that delivered the shard group's result.
STAGE_HEDGE_WON = "hedge.won"
#: A hedged read that did real work but finished after the primary.
STAGE_HEDGE_LOST = "hedge.lost"
#: Router-side fan-in overhead at the end of a cluster request.
STAGE_FANIN_OVERHEAD = "fanin.overhead"
#: A whole request shed by *single-host* admission control at batch
#: dispatch (fast rejection; no cache or device work was done).
STAGE_REQUEST_SHED = "request.shed"

#: Attribute marking a span allowed to end after its parent: speculative
#: work (a lost hedge, or the primary attempt a winning hedge beat) whose
#: completion no longer mattered to the request.  The nesting invariant
#: (:func:`repro.tracing.summary.validate_trace`) exempts exactly these.
ATTR_OVERLAP_OK = "overlap_ok"
#: Attribute marking spans that run concurrently with their siblings (the
#: shard groups of one fan-out).  Each still nests inside its parent, but
#: sibling durations deliberately don't tile — the conservation check in
#: :func:`repro.tracing.summary.validate_trace` skips the children-sum
#: budget for them (their bound is the nesting check itself).
ATTR_PARALLEL = "parallel"


@dataclass(slots=True)
class Span:
    """One named interval on the simulated clock.

    ``parent_id`` is ``None`` only for the root ``"request"`` span; every
    other span nests under its parent's interval (except speculative-loser
    spans carrying :data:`ATTR_OVERLAP_OK` — see module docstring).
    ``attributes`` carries stage-specific context: table/node/shard-group
    ids, batch id and cutoff, queue wait vs service split, attempt outcome.
    """

    span_id: int
    request_id: int
    parent_id: Optional[int]
    name: str
    t_start_us: float
    t_end_us: float
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return self.t_end_us - self.t_start_us


@dataclass(slots=True)
class RequestTrace:
    """The completed trace of one request: its root interval plus all spans."""

    request_id: int
    arrival_us: float
    completion_us: float
    slo_violated: bool
    degraded: bool
    spans: List[Span]

    @property
    def latency_us(self) -> float:
        return self.completion_us - self.arrival_us

    @property
    def root(self) -> Span:
        """The ``"request"`` span (always recorded first)."""
        return self.spans[0]


@dataclass(slots=True)
class _PendingRequest:
    """A request whose spans are still being recorded."""

    seq: int
    arrival_us: float
    root_id: int
    spans: List[Span]


class Tracer:
    """Per-request span recorder with a bounded, sampled sink.

    Parameters
    ----------
    config:
        Sampling and capacity knobs; defaults to an enabled
        :class:`~repro.core.config.TracingConfig` that retains everything
        (``sample_every=1``), which is what tests and ad-hoc debugging want.
    slo_latency_us:
        End-to-end latency above which a request counts as an SLO violator
        (always retained); ``None`` disables the violator override.
    """

    #: Class-level so instrumentation sites pay one attribute load to skip.
    enabled: bool = True

    def __init__(
        self,
        config: Optional[TracingConfig] = None,
        slo_latency_us: Optional[float] = None,
    ) -> None:
        self.config = config if config is not None else TracingConfig(enabled=True)
        self.slo_latency_us = slo_latency_us
        #: Retained traces by request id, in retention order (dict preserves
        #: insertion order; the oldest entry is the eviction victim).
        self.traces: Dict[int, RequestTrace] = {}
        self._pending: Dict[int, _PendingRequest] = {}
        self._next_span_id = 0
        # Conservation counters: every begun request must end exactly once,
        # whether or not its trace is retained.
        self.requests_started = 0
        self.requests_ended = 0
        self.requests_retained = 0
        self.requests_sampled_out = 0
        self.requests_evicted = 0
        self.spans_recorded = 0

    # -------------------------------------------------------------- recording
    def begin_request(self, request_id: int, arrival_us: float) -> int:
        """Open the root span of ``request_id``; returns the root span id."""
        if request_id in self._pending or request_id in self.traces:
            raise ValueError(f"request {request_id} already traced")
        root = Span(
            span_id=self._next_span_id,
            request_id=request_id,
            parent_id=None,
            name=STAGE_REQUEST,
            t_start_us=float(arrival_us),
            t_end_us=float(arrival_us),
        )
        self._next_span_id += 1
        self._pending[request_id] = _PendingRequest(
            seq=self.requests_started,
            arrival_us=float(arrival_us),
            root_id=root.span_id,
            spans=[root],
        )
        self.requests_started += 1
        self.spans_recorded += 1
        return root.span_id

    def span(
        self,
        request_id: int,
        name: str,
        t_start_us: float,
        t_end_us: float,
        parent_id: Optional[int] = None,
        **attributes: object,
    ) -> int:
        """Record one fully-known interval; returns its span id."""
        pending = self._pending[request_id]
        span = Span(
            span_id=self._next_span_id,
            request_id=request_id,
            parent_id=parent_id if parent_id is not None else pending.root_id,
            name=name,
            t_start_us=float(t_start_us),
            t_end_us=float(t_end_us),
            attributes=attributes,
        )
        self._next_span_id += 1
        pending.spans.append(span)
        self.spans_recorded += 1
        return span.span_id

    def open_span(
        self, request_id: int, name: str, t_start_us: float, **attributes: object
    ) -> int:
        """Record a span under the root whose end is not known yet (close
        with close_span)."""
        return self.span(request_id, name, t_start_us, t_start_us, **attributes)

    def close_span(
        self, request_id: int, span_id: int, t_end_us: float, **attributes: object
    ) -> None:
        """Set an open span's end time (and merge any late attributes)."""
        for span in self._pending[request_id].spans:
            if span.span_id == span_id:
                span.t_end_us = float(t_end_us)
                if attributes:
                    span.attributes.update(attributes)
                return
        raise KeyError(f"span {span_id} is not open on request {request_id}")

    def end_request(
        self, request_id: int, completion_us: float, degraded: bool = False
    ) -> None:
        """Close the root span and decide whether the trace is retained."""
        pending = self._pending.pop(request_id)
        root = pending.spans[0]
        root.t_end_us = float(completion_us)
        self.requests_ended += 1
        latency_us = float(completion_us) - pending.arrival_us
        slo_violated = (
            self.slo_latency_us is not None and latency_us > self.slo_latency_us
        )
        if not slo_violated and pending.seq % self.config.sample_every != 0:
            self.requests_sampled_out += 1
            return
        while len(self.traces) >= self.config.max_requests:
            self.traces.pop(next(iter(self.traces)))
            self.requests_evicted += 1
        self.traces[request_id] = RequestTrace(
            request_id=request_id,
            arrival_us=pending.arrival_us,
            completion_us=float(completion_us),
            slo_violated=slo_violated,
            degraded=degraded,
            spans=pending.spans,
        )
        self.requests_retained += 1

    # ---------------------------------------------------------------- queries
    def breakdown_by_stage(self) -> Dict[str, Dict[str, float]]:
        """Aggregate time per stage name over the retained traces."""
        from repro.tracing.summary import breakdown_by_stage

        return breakdown_by_stage(self.traces.values())

    def slowest_requests(self, k: int) -> List[RequestTrace]:
        """The ``k`` retained traces with the largest end-to-end latency."""
        ranked = sorted(
            self.traces.values(), key=lambda t: (-t.latency_us, t.request_id)
        )
        return ranked[: max(0, int(k))]

    def summary(self) -> Dict[str, object]:
        """JSON-ready condensation of the sink (see summary module)."""
        from repro.tracing.summary import tracer_summary

        return tracer_summary(self)

    def counters(self) -> Dict[str, int]:
        """Conservation counters (started/ended/retained/sampled/evicted)."""
        return {
            "requests_started": self.requests_started,
            "requests_ended": self.requests_ended,
            "requests_retained": self.requests_retained,
            "requests_sampled_out": self.requests_sampled_out,
            "requests_evicted": self.requests_evicted,
            "spans_recorded": self.spans_recorded,
        }


class NullTracer(Tracer):
    """The disabled tracer: every recording method is an allocation-free no-op.

    Instrumentation sites guard with ``if tracer.enabled:`` so these methods
    are rarely even called; they exist so unguarded calls are still safe.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(TracingConfig(enabled=False, sample_every=1))

    def begin_request(self, request_id: int, arrival_us: float) -> int:
        return -1

    def span(
        self,
        request_id: int,
        name: str,
        t_start_us: float,
        t_end_us: float,
        parent_id: Optional[int] = None,
        **attributes: object,
    ) -> int:
        return -1

    def open_span(
        self, request_id: int, name: str, t_start_us: float, **attributes: object
    ) -> int:
        return -1

    def close_span(
        self, request_id: int, span_id: int, t_end_us: float, **attributes: object
    ) -> None:
        return None

    def end_request(
        self, request_id: int, completion_us: float, degraded: bool = False
    ) -> None:
        return None


#: Shared no-op singleton: attach points default to this, never to ``None``.
NULL_TRACER = NullTracer()


def resolve_tracer(
    tracing: "Optional[TracingConfig | Tracer]",
    slo_latency_us: Optional[float] = None,
) -> Tracer:
    """Normalise a ``tracing`` argument into a tracer instance.

    Accepts an existing :class:`Tracer` (used as-is — tests pass one in to
    inspect raw spans afterwards), a :class:`TracingConfig` (a fresh tracer
    when enabled, :data:`NULL_TRACER` otherwise), or ``None`` (disabled).
    """
    if isinstance(tracing, Tracer):
        return tracing
    if tracing is None or not tracing.enabled:
        return NULL_TRACER
    return Tracer(tracing, slo_latency_us=slo_latency_us)
