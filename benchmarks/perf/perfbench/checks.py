"""The correctness gate: conservation laws checked before a number is written.

Every check raises :class:`CheckFailed`; the command turns that into a
non-zero exit with no result line.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from perfbench import entrypoints as ep


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def same_fingerprint(first: Any, other: Any, what: str) -> None:
    """Simulated outputs are a pure function of (trace, config, seed)."""
    require(first == other, f"{what}: simulated outputs differ between runs of one input")


def table_conservation(stats_by_table: Mapping[str, Any]) -> None:
    """lookups = hits + block reads, per table."""
    for name, stats in stats_by_table.items():
        require(
            stats.lookups == stats.hits + stats.block_reads,
            f"table {name}: {stats.lookups} lookups != {stats.hits} hits + "
            f"{stats.block_reads} block reads",
        )


def serving_conservation(report: Any) -> None:
    """offered = served + shed: every offered request has exactly one latency."""
    batched = sum(size * count for size, count in report.batch_size_hist.items())
    require(
        batched == report.num_requests,
        f"batches hold {batched} requests, {report.num_requests} were offered",
    )
    require(
        report.latency.samples == report.num_requests,
        f"{report.latency.samples} latencies for {report.num_requests} requests",
    )
    require(
        0 <= report.requests_shed <= report.num_requests,
        f"{report.requests_shed} shed of {report.num_requests} offered",
    )


def cluster_conservation(report: Any) -> None:
    """requests_total = ok + degraded; hedges launched = won + lost."""
    counters = report.counters
    require(
        counters.requests_total == counters.requests_ok + counters.requests_degraded,
        f"{counters.requests_total} requests != {counters.requests_ok} ok + "
        f"{counters.requests_degraded} degraded",
    )
    require(
        counters.requests_total == report.num_requests,
        f"{counters.requests_total} counted, {report.num_requests} offered",
    )
    require(
        counters.hedges_launched == counters.hedges_won + counters.hedges_lost,
        f"{counters.hedges_launched} hedges != {counters.hedges_won} won + "
        f"{counters.hedges_lost} lost",
    )


def device_busy_within_wall(busy_us: float, makespan_us: float, devices: int) -> None:
    """A FIFO device is busy at most all of the time."""
    require(
        busy_us <= makespan_us * devices * (1.0 + 1e-9),
        f"devices busy {busy_us:.1f} us in {makespan_us:.1f} us x {devices}",
    )


def sim_traces_valid(tracer: Any, spans_tile: bool) -> None:
    """``validate_trace`` passes; single-host stage spans tile the latency."""
    require(
        tracer.requests_started == tracer.requests_ended,
        f"{tracer.requests_started} traces begun, {tracer.requests_ended} ended",
    )
    for trace in tracer.traces.values():
        problems = ep.validate_trace(trace)
        require(not problems, f"request {trace.request_id}: {problems[:3]}")
        if spans_tile:
            staged_us = sum(
                span.duration_us for span in trace.spans if span.parent_id is not None
            )
            require(
                abs(staged_us - trace.latency_us) <= 1e-6 * max(1.0, trace.latency_us),
                f"request {trace.request_id}: stages cover {staged_us} us of "
                f"{trace.latency_us} us",
            )


def engine_matches_reference(
    store: Any, eval_trace: Any, sample_queries: int
) -> Dict[str, object]:
    """The batch engine and the reference loop agree on a query sample."""
    name = next(iter(eval_trace))
    state = store.tables[name]
    queries = eval_trace[name].queries[:sample_queries]
    results = []
    for replay in (ep.replay_table_cache_batched, ep.replay_table_cache):
        policy = ep.AccessThresholdPolicy(
            state.access_counts, state.cache_config.threshold
        )
        stats = replay(
            queries,
            state.layout,
            policy,
            cache_size=state.cache_config.cache_size_vectors,
            vector_bytes=store.config.vector_bytes,
        )
        results.append(stats.counters())
    require(
        results[0] == results[1],
        f"table {name}: engine {results[0]} != reference {results[1]}",
    )
    return {"table": name, "queries": len(queries), "lookups": results[0][0]}
