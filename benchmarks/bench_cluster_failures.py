"""Fault-scenario sweep: what each failure mode costs in p999 and availability.

A tuned four-table Bandana store is promoted to a simulated cluster
(:mod:`repro.cluster`: consistent-hash sharding, R-way replication,
fan-out/fan-in serving) and replayed under an open-loop Poisson arrival
process while the fault-injection layer degrades it.  One row per scenario:

* ``healthy`` — no faults, the baseline every other row reads against;
* ``crash R=1`` / ``crash R=2`` — one node crashes mid-run and recovers
  cold; unreplicated this costs availability, replicated it costs only tail
  latency (retries + hedges keep every request whole);
* ``slow x4/x20/x100`` — one node's service times stretched, the
  degradation ladder behind the hedging and circuit-breaker machinery;
* ``flaky 1%/5%/20%`` — one link drops attempts (each burning the shard
  timeout before a backoff retry) at increasing loss rates;
* ``compound`` — a crash, a slow node and a degraded link at once.

Every row reports availability (fraction of requests with all shard groups
served), latency percentiles over *all* requests (degraded included), and
the robustness counters (timeouts, retries, sheds, hedges, breaker
ejections, cold restarts).  The fault window covers the middle half of each
run, so every row also measures healthy ramp-in/out traffic — scenario cost
shows up in the tail, exactly where production failures live.

Before anything is written, the sweep checks its own claims
(:func:`check_claims`): an unreplicated crash costs availability, a
replicated one costs only tail (p999 above healthy, availability 1), and no
fault row's p999 is below the healthy row's.  A run that breaks one exits
non-zero.

Results are printed, persisted under ``benchmarks/results/`` and written as
JSON to ``BENCH_cluster_failures.json`` at the repository root.  The artifact
always carries a ``smoke_reference`` section computed at the CI-sized
:data:`SMOKE_PARAMS` configuration — the sweep is simulated time only (loss
draws and arrivals are seeded), so ``benchmarks/perf_track.py`` regenerates
that section on any runner and compares every number with tight
tolerances.  Run directly (``python benchmarks/bench_cluster_failures.py``),
optionally with ``--smoke`` for a seconds-long run that writes only the
smoke section (CI's tier-1 job runs it for its claims and restores the
committed JSON; the chaos-smoke job uploads its JSON as an artifact).
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import json
import os
import sys

from benchmarks.common import build_table_workload, save_result
from repro.cluster import run_scenario
from repro.core.bandana import BandanaStore
from repro.core.config import (
    BandanaConfig,
    ClusterConfig,
    ServingConfig,
    TracingConfig,
)
from repro.simulation.report import format_table
from repro.workloads import scaled_table_specs
from repro.workloads.trace import ModelTrace

#: Tables served together (the paper's high-traffic study set).
TABLES = ["table1", "table2", "table6", "table7"]
#: Cluster shape of every row (replication overridden per row).
NUM_NODES = 4
REPLICATION = 2
#: Offered load and SLO of the sweep.  800 rps keeps the healthy cluster
#: comfortably below saturation (availability 1.0, p999 under the SLO), so
#: every fault row's cost is attributable to the fault, not to overload.
ARRIVAL_RATE_RPS = 800.0
SLO_LATENCY_US = 2000.0
#: A node sheds a read whose backlog would exceed this many SLOs (the run's
#: ``ServingConfig.admission_queue_slack``; a ServingConfig sheds nothing by
#: default).  The slow-node rows lean on it: without it a x100 node's FIFO
#: backlog grows for the whole fault window.
ADMISSION_QUEUE_SLACK = 4.0
#: Slow requests whose per-stage breakdown (repro.tracing) each scenario row
#: carries in the artifact — the "why" behind its p999-vs-healthy ratio.
TOP_K_SLOW = 3

JSON_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_cluster_failures.json"
)

#: The CI-sized configuration behind the artifact's ``smoke_reference``
#: section: every scenario row on a short request stream (regenerated and
#: compared by ``benchmarks/perf_track.py``).
SMOKE_PARAMS = dict(eval_multiplier=2, num_requests=300, warmup_requests=120)


def build_store(tables, eval_multiplier, total_cache_fraction=0.5):
    """A tuned store plus a steady-state evaluation trace (serving-bench twin)."""
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


def scenario_rows(makespan_s):
    """The sweep: (label, scenario, replication, factory overrides) rows.

    The fault window spans the middle half of the expected run, so each
    scenario is bracketed by healthy traffic.
    """
    window = dict(start_s=0.25 * makespan_s, duration_s=0.5 * makespan_s)
    return [
        ("healthy", "none", REPLICATION, {}),
        ("crash R=1", "crash_recover", 1, dict(window)),
        ("crash R=2", "crash_recover", REPLICATION, dict(window)),
        ("slow x4", "slow_node", REPLICATION, dict(window, multiplier=4.0)),
        ("slow x20", "slow_node", REPLICATION, dict(window, multiplier=20.0)),
        ("slow x100", "slow_node", REPLICATION, dict(window, multiplier=100.0)),
        ("flaky 1%", "flaky_link", REPLICATION, dict(window, loss_prob=0.01)),
        ("flaky 5%", "flaky_link", REPLICATION, dict(window, loss_prob=0.05)),
        ("flaky 20%", "flaky_link", REPLICATION, dict(window, loss_prob=0.20)),
        ("compound", "degraded_cluster", REPLICATION, dict(window)),
    ]


def run_sweep(eval_multiplier=24, num_requests=4000, warmup_requests=1000):
    store, eval_trace = build_store(TABLES, eval_multiplier)
    available = len(list(eval_trace.requests()))
    if available < warmup_requests + num_requests:
        raise ValueError(
            f"trace supplies {available} requests but the sweep needs "
            f"{warmup_requests} warmup + {num_requests} measured; "
            "raise eval_multiplier"
        )
    serving = ServingConfig(
        arrival_rate_rps=ARRIVAL_RATE_RPS,
        slo_latency_us=SLO_LATENCY_US,
        admission_queue_slack=ADMISSION_QUEUE_SLACK,
    )
    makespan_s = num_requests / ARRIVAL_RATE_RPS
    rows = []
    for label, scenario, replication, overrides in scenario_rows(makespan_s):
        cluster_config = ClusterConfig(
            num_nodes=NUM_NODES,
            replication=replication,
            # Cooloff sized to the run (the default 0.25 s would eject a
            # node for most of a short sweep): long enough to skip a burst
            # of strikes, short enough to re-probe within the fault window.
            breaker_cooloff_s=0.02 * makespan_s,
        )
        report = run_scenario(
            store,
            eval_trace,
            scenario=scenario,
            cluster_config=cluster_config,
            serving_config=serving,
            num_requests=num_requests,
            scenario_overrides=overrides,
            warmup_requests=warmup_requests,
            tracing=TracingConfig(enabled=True, top_k_slow=TOP_K_SLOW),
        )
        rows.append(
            {
                "label": label,
                "scenario": scenario,
                "replication": replication,
                "overrides": overrides,
                **report.to_dict(),
            }
        )
    baseline = rows[0]
    for row in rows:
        row["p999_vs_healthy"] = round(
            row["latency"]["p999_us"] / baseline["latency"]["p999_us"], 2
        )
    return {
        "tables": list(TABLES),
        "num_nodes": NUM_NODES,
        "num_requests": num_requests,
        "warmup_requests": warmup_requests,
        "arrival_rate_rps": ARRIVAL_RATE_RPS,
        "slo_latency_us": SLO_LATENCY_US,
        "scenarios": rows,
    }


def check_claims(result):
    """Raise ``AssertionError`` unless the sweep shows what its rows claim."""
    rows = {row["label"]: row for row in result["scenarios"]}
    healthy = rows["healthy"]["latency"]

    def availability(label):
        return rows[label]["counters"]["availability"]

    assert availability("crash R=1") < 1.0, "an unreplicated crash cost nothing"
    assert availability("crash R=2") == 1.0, "a replicated crash lost requests"
    assert rows["crash R=2"]["latency"]["p999_us"] > healthy["p999_us"], (
        "a replicated crash left the tail untouched"
    )
    for label, row in rows.items():
        assert row["latency"]["p999_us"] >= healthy["p999_us"], (
            f"{label}: p999 {row['latency']['p999_us']:.0f} us is below the "
            f"healthy row's {healthy['p999_us']:.0f} us"
        )


def _pctl(latency, field):
    """One formatted percentile, starred when its rank outruns the samples."""
    flag = "*" if field in latency.get("unsupported_percentiles", ()) else ""
    return f"{latency[field]:.0f}{flag}"


def _format_top_slow(row):
    """The row's slowest requests with their per-stage time, one line each."""
    lines = [f"slowest requests under '{row['label']}', per-stage time:"]
    for entry in row["trace"]["top_slow"]:
        stages = ", ".join(
            f"{name} {us:,.0f}us"
            for name, us in list(entry["stage_totals_us"].items())[:4]
        )
        degraded = " [degraded]" if entry["degraded"] else ""
        lines.append(
            f"  request {entry['request_id']}: "
            f"{entry['latency_us']:,.0f}us{degraded} ({stages})"
        )
    return lines


def _format(result):
    headers = [
        "scenario",
        "R",
        "avail",
        "p50 us",
        "p99 us",
        "p999 us",
        "x999",
        "timeouts",
        "retries",
        "sheds",
        "hedges",
        "eject",
        "restart",
    ]
    rows = []
    flagged = False
    for row in result["scenarios"]:
        c = row["counters"]
        flagged = flagged or bool(row["latency"]["unsupported_percentiles"])
        rows.append(
            [
                row["label"],
                row["replication"],
                f"{c['availability']:.4f}",
                _pctl(row["latency"], "p50_us"),
                _pctl(row["latency"], "p99_us"),
                _pctl(row["latency"], "p999_us"),
                f"{row['p999_vs_healthy']:.2f}x",
                c["timeouts"],
                c["retries"],
                c["sheds"],
                f"{c['hedges_launched']}/{c['hedges_won']}/{c['hedges_lost']}",
                c["breaker_ejections"],
                c["cold_restarts"],
            ]
        )
    lines = [
        f"fault-scenario sweep on {'+'.join(result['tables'])} "
        f"({result['num_requests']} requests at {result['arrival_rate_rps']:.0f} rps, "
        f"{result['num_nodes']} nodes)",
        format_table(headers, rows),
        "x999: p999 latency relative to the healthy baseline row; "
        "hedges: launched/won/lost",
    ]
    if flagged:
        lines.append(
            "* percentile computed from fewer samples than its rank requires"
            " (interpolation quotes ~the max, not a tail estimate)"
        )
    # The "why" behind the worst ratios: per-stage breakdowns of the slowest
    # requests in the three most-inflated scenarios.
    worst = sorted(
        (row for row in result["scenarios"] if row.get("trace")),
        key=lambda row: -row["p999_vs_healthy"],
    )[:3]
    for row in worst:
        lines.extend(_format_top_slow(row))
    return "\n".join(lines)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    artifact = {"smoke": smoke, "smoke_reference": run_sweep(**SMOKE_PARAMS)}
    check_claims(artifact["smoke_reference"])
    if smoke:
        # Keep the text artifact full-run only.
        print(_format(artifact["smoke_reference"]))
    else:
        artifact["full"] = run_sweep()
        check_claims(artifact["full"])
        save_result("cluster_failures", _format(artifact["full"]))
    with open(JSON_PATH, "w") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
