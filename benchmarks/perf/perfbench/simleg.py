"""Simulated-clock measurements that more than one workload needs.

Each workload reads the ``sim_*`` metrics of its own flow off its own run
(see :mod:`perfbench.workloads`).  The benchmark's manifest, though, wants
every end-to-end metric on every workload, so the cells a workload's flow
does not produce are filled from the (store, evaluation trace) pair it ends
with, by the same public entry points, untimed and once per run:

* the replay family — one cold table-sequential replay cut at three quarters
  (hit rate, late hit rate, effective-bandwidth gain over the no-prefetch
  baseline) and the unlimited-cache placement study;
* the serving family — one warm open-loop run at the reference rate (median
  and tail latency, share within the SLO, share served) and one at ten times
  that rate, whose throughput is the saturation capacity.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from perfbench import checks
from perfbench import entrypoints as ep

#: Share of the evaluation trace replayed, untimed, to warm the caches before
#: any serving run; statistics start after the modelled caches have filled.
WARM_FRACTION = 0.3
#: The last quarter of the replay is the "late" window of ``sim_late_hit_rate``.
LATE_FRACTION = 0.25
#: ``sim_capacity_rps`` is the throughput when the measured trace is offered
#: at this multiple of the reference rate: the backlog grows from the first
#: batch on, so served requests per simulated second is what the host sustains.
OVERLOAD_FACTOR = 10.0


def serving_config(rate_rps: float, seed: int) -> Any:
    """Default ``ServingConfig`` device path, batch <= 16, linger 300 us, SLO 2000 us."""
    return ep.ServingConfig(
        arrival_rate_rps=float(rate_rps),
        max_batch_requests=16,
        max_linger_us=300.0,
        slo_latency_us=2000.0,
        seed=seed,
    )


def warm_store(store: Any, warm_trace: Any) -> None:
    """Cold reset, then replay the warm-up share through the serving path."""
    store.reset_serving_state()
    for name, trace in warm_trace.items():
        store.lookup_batch(name, trace.queries, gather=False)


def serve_once(store: Any, warm: Any, rest: Any, rate_rps: float, seed: int) -> Any:
    """One warm open-loop serving run; arrivals are a seeded Poisson schedule."""
    warm_store(store, warm)
    report = ep.simulate_serving(
        store, rest, serving_config(rate_rps, seed), reset_first=False
    )
    checks.serving_conservation(report)
    return report


def latency_scores(report: Any, failed: int) -> Dict[str, float]:
    """Latency and outcome shares of one serving report (single host or cluster).

    A request that failed or was refused counts as missing the SLO.
    """
    offered = report.num_requests
    missed = min(offered, report.slo_violations + failed)
    return {
        "sim_p50_us": report.latency.p50_us,
        "sim_p95_us": report.latency.p95_us,
        "sim_slo_met_share": 1.0 - missed / offered,
        "sim_served_share": 1.0 - failed / offered,
    }


def tail_note(what: str, report: Any) -> str:
    """The p99 the gate does not use, with the sample count behind it."""
    return (
        f"{what}: p99 {report.latency.p99_us:.1f} us with "
        f"{report.num_requests // 100} of {report.num_requests} samples beyond it"
    )


def replay_scores(store: Any, eval_trace: Any) -> Dict[str, float]:
    """Hit rates, bandwidth gain and placement gain of one cold replay."""
    head, tail = eval_trace.split(1.0 - LATE_FRACTION)
    ep.simulate_store(store, head, include_baseline=False)
    before_tail = store.aggregate_stats()
    ep.simulate_store(store, tail, include_baseline=False, reset_first=False)
    total = store.aggregate_stats()
    checks.table_conservation({name: s.stats for name, s in store.tables.items()})
    checks.require(
        total.lookups == eval_trace.total_lookups,
        f"replayed {total.lookups} of {eval_trace.total_lookups} lookups",
    )
    placement = [
        1.0 + ep.unlimited_cache_bandwidth_increase(trace, store.tables[name].layout)
        for name, trace in eval_trace.items()
    ]
    return {
        "sim_hit_rate": total.hits / total.lookups,
        "sim_late_hit_rate": (total.hits - before_tail.hits)
        / (total.lookups - before_tail.lookups),
        "sim_bw_gain": store.baseline_block_reads(eval_trace) / total.block_reads,
        "sim_placement_gain": sum(placement) / len(placement),
    }


def serving_scores(
    store: Any,
    eval_trace: Any,
    reference_rps: float,
    seed: int,
    reference: Optional[Any] = None,
) -> Tuple[Dict[str, float], Any]:
    """Latency at the reference rate and saturation capacity; also the reference report.

    ``reference`` is the reference-rate report when the workload's own timed
    run already produced it.
    """
    warm, rest = eval_trace.split(WARM_FRACTION)
    if reference is None:
        reference = serve_once(store, warm, rest, reference_rps, seed)
    overload = serve_once(store, warm, rest, OVERLOAD_FACTOR * reference_rps, seed)
    scores = latency_scores(reference, reference.requests_shed)
    scores["sim_capacity_rps"] = overload.throughput_rps
    return scores, reference
