"""Query and summary API over retained request traces.

Three consumers, three shapes:

* **Tests** call :func:`validate_trace` — the structural invariants every
  trace must satisfy (monotone intervals, children nested inside parents,
  child durations fitting inside the parent's budget) — and the tracer's
  conservation counters.
* **Debugging** calls :func:`critical_path` — the chain of spans that
  actually determined a request's completion time (at each level, the child
  whose end the parent's end equals), which is the answer to "where did
  this request's latency go".
* **Benchmark artifacts** call :func:`tracer_summary` — a JSON-ready
  condensation: per-stage time breakdown over all retained traces and over
  SLO violators only, plus the top-K slowest requests with their critical
  paths.  This is what lands next to the latency percentiles in
  ``BENCH_serving_latency.json`` / ``BENCH_cluster_failures.json``.

Speculative losers — spans carrying
:data:`~repro.tracing.tracer.ATTR_OVERLAP_OK` (a lost hedge, or the primary
attempt a winning hedge beat) — are real work and appear in stage
breakdowns, but are exempt from the nesting and budget invariants and never
sit on a critical path: their completion did not matter to the request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.tracing.tracer import ATTR_OVERLAP_OK, ATTR_PARALLEL, RequestTrace, Span

if TYPE_CHECKING:
    from repro.tracing.tracer import Tracer

#: Slack for float comparisons between simulated-clock timestamps.
_EPS_US = 1e-6


def _children_by_parent(trace: RequestTrace) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = {}
    for span in trace.spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    return children


def _overlaps(span: Span) -> bool:
    return bool(span.attributes.get(ATTR_OVERLAP_OK))


def critical_path(trace: RequestTrace) -> List[Span]:
    """The root-to-leaf chain of spans that determined the completion time.

    From the root down, follow the child whose end time matches (is latest
    within) the parent's interval; speculative losers are skipped.  The
    returned list starts at the root span.
    """
    children = _children_by_parent(trace)
    path = [trace.root]
    current = trace.root
    while True:
        candidates = [
            child
            for child in children.get(current.span_id, ())
            if not _overlaps(child) and child.t_end_us <= current.t_end_us + _EPS_US
        ]
        if not candidates:
            return path
        current = max(candidates, key=lambda span: (span.t_end_us, span.span_id))
        path.append(current)


def breakdown_by_stage(
    traces: Iterable[RequestTrace],
) -> Dict[str, Dict[str, float]]:
    """Aggregate span time per stage name over ``traces``.

    The root ``"request"`` span is included (its total is the summed
    end-to-end latency, a useful denominator); every stage row carries the
    span count, total/mean/max duration, and its share of that root total.
    Speculative losers are counted — they are real work the cluster did.
    """
    count: Dict[str, int] = {}
    total: Dict[str, float] = {}
    peak: Dict[str, float] = {}
    for trace in traces:
        for span in trace.spans:
            count[span.name] = count.get(span.name, 0) + 1
            total[span.name] = total.get(span.name, 0.0) + span.duration_us
            peak[span.name] = max(peak.get(span.name, 0.0), span.duration_us)
    from repro.tracing.tracer import STAGE_REQUEST

    root_total = total.get(STAGE_REQUEST, 0.0)
    return {
        name: {
            "count": count[name],
            "total_us": total[name],
            "mean_us": total[name] / count[name],
            "max_us": peak[name],
            "share_of_request": (
                total[name] / root_total if root_total > 0 else 0.0
            ),
        }
        for name in sorted(total, key=lambda n: -total[n])
    }


def validate_trace(trace: RequestTrace) -> List[str]:
    """Structural invariant violations of one trace (empty list == valid).

    Checked invariants:

    * exactly one root span, named ``"request"``, spanning
      ``[arrival_us, completion_us]``;
    * every span's interval is monotone (``t_end_us >= t_start_us``);
    * every non-root span's parent exists and belongs to the same request;
    * every child starts within its parent's interval, and ends within it
      too unless flagged :data:`~repro.tracing.tracer.ATTR_OVERLAP_OK`;
    * per-stage conservation: for every span, the summed durations of its
      non-overlapping, non-parallel direct children fit inside the span's
      own duration (sequential stages on the same level tile without double
      counting, so they sum to within the recorded end-to-end latency at
      the root; fan-out siblings carrying
      :data:`~repro.tracing.tracer.ATTR_PARALLEL` run concurrently and are
      bounded by the nesting check instead).
    """
    problems: List[str] = []
    roots = [span for span in trace.spans if span.parent_id is None]
    if len(roots) != 1:
        problems.append(f"expected exactly one root span, found {len(roots)}")
        return problems
    root = roots[0]
    if root is not trace.spans[0]:
        problems.append("root span is not the first recorded span")
    if root.t_start_us != trace.arrival_us or root.t_end_us != trace.completion_us:
        problems.append(
            "root span does not cover [arrival, completion]: "
            f"[{root.t_start_us}, {root.t_end_us}] vs "
            f"[{trace.arrival_us}, {trace.completion_us}]"
        )
    by_id = {span.span_id: span for span in trace.spans}
    for span in trace.spans:
        if span.t_end_us < span.t_start_us - _EPS_US:
            problems.append(
                f"span {span.span_id} ({span.name}) runs backwards: "
                f"[{span.t_start_us}, {span.t_end_us}]"
            )
        if span.request_id != trace.request_id:
            problems.append(
                f"span {span.span_id} belongs to request {span.request_id}, "
                f"not {trace.request_id}"
            )
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"span {span.span_id} ({span.name}) references missing "
                f"parent {span.parent_id}"
            )
            continue
        if span.t_start_us < parent.t_start_us - _EPS_US:
            problems.append(
                f"span {span.span_id} ({span.name}) starts before its "
                f"parent {parent.name}"
            )
        if not _overlaps(span) and span.t_end_us > parent.t_end_us + _EPS_US:
            problems.append(
                f"span {span.span_id} ({span.name}) ends after its parent "
                f"{parent.name} without the overlap flag"
            )
    children = _children_by_parent(trace)
    for span in trace.spans:
        budget = span.duration_us + _EPS_US
        spent = sum(
            child.duration_us
            for child in children.get(span.span_id, ())
            if not _overlaps(child) and not child.attributes.get(ATTR_PARALLEL)
        )
        if spent > budget:
            problems.append(
                f"children of span {span.span_id} ({span.name}) sum to "
                f"{spent:.3f} us, exceeding its {span.duration_us:.3f} us"
            )
    return problems


def _trace_digest(trace: RequestTrace) -> Dict[str, object]:
    """One slow request's JSON row: identity, latency, critical path."""
    stages: Dict[str, float] = {}
    for span in trace.spans:
        if span.parent_id is not None:
            stages[span.name] = stages.get(span.name, 0.0) + span.duration_us
    return {
        "request_id": trace.request_id,
        "arrival_us": trace.arrival_us,
        "latency_us": trace.latency_us,
        "slo_violated": trace.slo_violated,
        "degraded": trace.degraded,
        "stage_totals_us": {
            name: stages[name] for name in sorted(stages, key=lambda n: -stages[n])
        },
        "critical_path": [
            {
                "name": span.name,
                "t_start_us": span.t_start_us,
                "duration_us": span.duration_us,
                "attributes": {
                    key: (list(value) if isinstance(value, tuple) else value)
                    for key, value in span.attributes.items()
                },
            }
            for span in critical_path(trace)
        ],
    }


def tracer_summary(tracer: "Tracer") -> Dict[str, object]:
    """JSON-ready condensation of a tracer's sink (see module docstring)."""
    violators = [t for t in tracer.traces.values() if t.slo_violated]
    return {
        "counters": tracer.counters(),
        "sample_every": tracer.config.sample_every,
        "slo_latency_us": tracer.slo_latency_us,
        "breakdown_by_stage": breakdown_by_stage(tracer.traces.values()),
        "slo_violators_breakdown_by_stage": breakdown_by_stage(violators),
        "top_slow": [
            _trace_digest(trace)
            for trace in tracer.slowest_requests(tracer.config.top_k_slow)
        ],
    }
