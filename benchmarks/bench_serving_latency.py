"""Serving-latency load sweep: arrival rate vs end-to-end percentiles.

The serving-side counterpart of the paper's Figure 5: an open-loop Poisson
arrival process drives a built Bandana store through the event-driven serving
front-end (:mod:`repro.serving`) at several arrival rates — from a lightly
loaded device up to (and past) its saturation point — once with dynamic
batching and once unbatched.  For every point the harness reports the
end-to-end request latency percentiles (p50/p95/p99/p999), the sustained
throughput, the observed device queue depth and the SLO violation rate.

The saturation point is calibrated in two steps.  An analytic bound first
comes from the workload itself: a warm replay measures the steady NVM block
reads per request, and the device's block rate with every submission slot
busy divided by that cost bounds the servable arrival rate.  Each arm's
capacity is then measured — one probe run offered twice the analytic bound,
whose sustained throughput is that arm's capacity — and both must reach
:data:`MIN_CAPACITY_SHARE` of the bound: the device clock runs the law the
bound is priced at, so a larger gap means the simulated device wastes
capacity.  The batched capacity is the saturation rate the sweep fractions
refer to.  The sweep's top point offers more than that, so the open-loop
queueing blow-up is visible in the numbers.  Every measured
run first replays a warm-up prefix of the trace untimed (the paper's
steady-state framing): otherwise the cold-start miss burst transiently
saturates the device and smears every percentile, regardless of the offered
rate.

Results are printed, persisted under ``benchmarks/results/`` and written as
JSON to ``BENCH_serving_latency.json`` at the repository root.  The artifact
always carries a ``smoke_reference`` section computed at the CI-sized
:data:`SMOKE_PARAMS` configuration — the sweep is simulated time only, so
``benchmarks/perf_track.py`` regenerates that section on any runner and
compares every number with tight tolerances.  Run directly
(``python benchmarks/bench_serving_latency.py``), optionally with ``--smoke``
for a seconds-long run that refreshes only the smoke section.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import json
import os
import sys

from benchmarks.common import (
    build_table_workload,
    saturation_rate_rps,
    save_result,
    warm_store,
)
from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig, ServingConfig, TracingConfig
from repro.serving import simulate_serving
from repro.simulation.report import format_table
from repro.workloads import scaled_table_specs
from repro.workloads.trace import ModelTrace

#: Tables served together (the paper's high-traffic study set).
TABLES = ["table1", "table2", "table6", "table7"]
#: Steady-state multiplier over the standard evaluation trace length.
EVAL_MULTIPLIER = 8
#: Arrival rates as fractions of the measured device-saturation throughput.
LOAD_FRACTIONS = (0.1, 0.5, 0.95, 1.2)
#: Batching knobs of the batched arm (the unbatched arm uses max_batch=1).
MAX_BATCH = 16
MAX_LINGER_US = 300.0
#: The two arms of every sweep point and capacity probe.
ARMS = {
    "batched": dict(max_batch_requests=MAX_BATCH, max_linger_us=MAX_LINGER_US),
    "unbatched": dict(max_batch_requests=1),
}
#: Each arm's measured capacity must reach this share of the analytic bound.
MIN_CAPACITY_SHARE = 0.9
SLO_LATENCY_US = 2000.0
#: Fraction of the evaluation trace replayed untimed to warm the caches.
WARMUP_FRACTION = 0.3
#: Slow requests whose per-stage breakdown lands in the artifact; traced
#: (repro.tracing) on the highest load point only — that is where the tail
#: lives, and tracing every point would bloat the JSON for no insight.
TOP_K_SLOW = 5

JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_serving_latency.json")

#: The CI-sized configuration behind the artifact's ``smoke_reference``
#: section: the whole sweep (every load point, both arms) on two tables and
#: a short request stream.  The sweep is a deterministic function of
#: (stores, traces, configs, seeds) — simulated time only — so
#: ``benchmarks/perf_track.py`` regenerates this section on any runner and
#: compares every number with tight tolerances.
SMOKE_PARAMS = dict(eval_multiplier=1, tables=list(TABLES[:2]), num_requests=200)


def build_store(tables, eval_multiplier, total_cache_fraction=0.5):
    """A tuned store plus a steady-state evaluation trace for the sweep."""
    specs = scaled_table_specs(1.0 / 1000.0, names=tables)
    workloads = {
        name: build_table_workload(spec, seed=100 + i, shp_iterations=8)
        for i, (name, spec) in enumerate(specs.items())
    }
    eval_trace = ModelTrace(
        {
            name: workload.generator.generate_lookups(
                eval_multiplier * workload.evaluation.num_lookups
            )
            for name, workload in workloads.items()
        }
    )
    working_set = sum(
        trace.unique_vectors().size for trace in eval_trace.tables.values()
    )
    train_trace = ModelTrace({name: w.train for name, w in workloads.items()})
    store = BandanaStore.build(
        train_trace,
        BandanaConfig(
            total_cache_vectors=max(1, int(working_set * total_cache_fraction)),
            shp_iterations=8,
            tune_thresholds=False,
            seed=7,
        ),
    )
    return store, eval_trace


def measured_capacity_rps(
    store, warm_trace, serve_trace, analytic_rps, num_requests, knobs
):
    """One arm's sustained throughput under a deliberately saturating offer."""
    warm_store(store, warm_trace)
    probe = simulate_serving(
        store,
        serve_trace,
        ServingConfig(arrival_rate_rps=2.0 * analytic_rps, seed=13, **knobs),
        num_requests=num_requests,
        reset_first=False,
    )
    return probe.throughput_rps


def run_sweep(eval_multiplier=EVAL_MULTIPLIER, tables=TABLES, num_requests=None):
    store, eval_trace = build_store(tables, eval_multiplier)
    warm_trace, serve_trace = eval_trace.split(WARMUP_FRACTION)
    analytic_rps = saturation_rate_rps(store, warm_trace, serve_trace)
    capacity_rps = {
        arm: measured_capacity_rps(
            store, warm_trace, serve_trace, analytic_rps, num_requests, knobs
        )
        for arm, knobs in ARMS.items()
    }
    sat_rps = capacity_rps["batched"]
    sweep = []
    for fraction in LOAD_FRACTIONS:
        rate = fraction * sat_rps
        traced = fraction == LOAD_FRACTIONS[-1]
        point = {"load_fraction": fraction, "arrival_rate_rps": round(rate, 1)}
        for arm, knobs in ARMS.items():
            warm_store(store, warm_trace)
            report = simulate_serving(
                store,
                serve_trace,
                ServingConfig(
                    arrival_rate_rps=rate,
                    slo_latency_us=SLO_LATENCY_US,
                    seed=13,
                    **knobs,
                ),
                num_requests=num_requests,
                reset_first=False,
                tracing=(
                    TracingConfig(enabled=True, top_k_slow=TOP_K_SLOW)
                    if traced
                    else None
                ),
            )
            point[arm] = report.to_dict()
        sweep.append(point)
    return {
        "tables": list(tables),
        "eval_multiplier": int(eval_multiplier),
        "num_requests": sweep[0]["batched"]["num_requests"],
        "analytic_saturation_rps": round(analytic_rps, 1),
        "capacity_rps": {arm: round(rps, 1) for arm, rps in capacity_rps.items()},
        "max_batch_requests": MAX_BATCH,
        "max_linger_us": MAX_LINGER_US,
        "slo_latency_us": SLO_LATENCY_US,
        "sweep": sweep,
    }


def _pctl(latency, field):
    """One formatted percentile, starred when its rank outruns the samples."""
    flag = "*" if field in latency.get("unsupported_percentiles", ()) else ""
    return f"{latency[field]:.0f}{flag}"


def _format_top_slow(trace):
    """Readable top-K slow-request rows from a tracer summary dict."""
    lines = []
    for entry in trace["top_slow"]:
        stages = ", ".join(
            f"{name} {us:,.0f}us"
            for name, us in list(entry["stage_totals_us"].items())[:4]
        )
        lines.append(
            f"  request {entry['request_id']}: "
            f"{entry['latency_us']:,.0f}us ({stages})"
        )
    return lines


def _format(result):
    headers = [
        "load", "rate (rps)", "arm", "p50 (us)", "p95 (us)", "p99 (us)",
        "p999 (us)", "tput (rps)", "mean qd", "SLO viol",
    ]
    rows = []
    flagged = False
    for point in result["sweep"]:
        for arm in ("batched", "unbatched"):
            report = point[arm]
            flagged = flagged or bool(report["latency"]["unsupported_percentiles"])
            rows.append(
                [
                    f"{point['load_fraction']:.2f}x",
                    f"{point['arrival_rate_rps']:,.0f}",
                    arm,
                    _pctl(report["latency"], "p50_us"),
                    _pctl(report["latency"], "p95_us"),
                    _pctl(report["latency"], "p99_us"),
                    _pctl(report["latency"], "p999_us"),
                    f"{report['throughput_rps']:,.0f}",
                    f"{report['mean_queue_depth']:.1f}",
                    f"{100 * report['slo_violation_rate']:.1f}%",
                ]
            )
    lines = [
        f"serving latency on {'+'.join(result['tables'])} "
        f"({result['num_requests']} requests/run, device saturation "
        f"~{result['capacity_rps']['batched']:,.0f} rps of an analytic "
        f"{result['analytic_saturation_rps']:,.0f}, "
        f"batch<= {result['max_batch_requests']}, "
        f"linger {result['max_linger_us']:.0f} us)",
        format_table(headers, rows),
    ]
    if flagged:
        lines.append(
            "* percentile computed from fewer samples than its rank requires"
            " (interpolation quotes ~the max, not a tail estimate)"
        )
    top = result["sweep"][-1]
    for arm in ("batched", "unbatched"):
        trace = top[arm].get("trace")
        if trace:
            lines.append(
                f"slowest requests at {top['load_fraction']:.2f}x ({arm}), "
                "per-stage time:"
            )
            lines.extend(_format_top_slow(trace))
    return "\n".join(lines)


def capacity_shortfalls(result):
    """One line per arm whose capacity misses its share of the analytic bound."""
    bound = result["analytic_saturation_rps"]
    return [
        f"{arm} capacity {rps:,.0f} rps is below {MIN_CAPACITY_SHARE:.0%} of the "
        f"analytic bound {bound:,.0f} rps"
        for arm, rps in result["capacity_rps"].items()
        if rps < MIN_CAPACITY_SHARE * bound
    ]


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    artifact = {"smoke": smoke, "smoke_reference": run_sweep(**SMOKE_PARAMS)}
    if smoke:
        result = artifact["smoke_reference"]
        print(_format(result))
    else:
        result = run_sweep()
        artifact["full"] = result
        save_result("serving_latency", _format(result))
    shortfalls = capacity_shortfalls(artifact["smoke_reference"]) + (
        [] if smoke else capacity_shortfalls(result)
    )
    if shortfalls:
        sys.exit("\n".join(shortfalls))
    with open(JSON_PATH, "w") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    top = result["sweep"][-1]
    print(
        f"at {top['load_fraction']:.2f}x saturation: batched p99 "
        f"{top['batched']['latency']['p99_us']:,.0f} us vs unbatched "
        f"{top['unbatched']['latency']['p99_us']:,.0f} us"
    )
