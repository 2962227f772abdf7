"""Shared-device study: what co-hosting tables on one NVM costs.

The device-layer counterpart of the serving-latency sweep: a two-table
Bandana store is replayed through the event-driven front-end on two host
device banks (``ServingConfig.devices_per_host``).  Either way a batch
serves each device it touches once, with the summed misses of the tables
pinned to it —

* ``per-table`` — ``devices_per_host = len(TABLES)``: every table owns a
  private device, so reads of different tables never queue on each other;
* ``shared-1`` — ``devices_per_host = 1``: both tables pinned to the same
  physical device, the paper's actual single-host deployment, where one
  table's miss burst inflates the *other* table's tail.

Three sections land in the artifact:

1. **Contention sweep** — arrival rates below and past device saturation,
   both banks at each point; the shared column's p999 excess over
   per-table is the cross-table contention private devices cannot produce.
   The per-bank *capacity* (highest swept rate whose SLO-violation rate
   stays under 1%) summarises the sweep.
2. **Open vs closed loop** — the same store at matched offered load: an
   open-loop Poisson source vs a fixed client population
   (``closed-loop`` arrivals) whose ``clients / think`` equals the Poisson
   rate.  The closed loop's concurrency cap turns queueing blow-up into
   throughput plateau: past saturation, open-loop p999 explodes while the
   closed loop degrades gently — both measured here.
3. **Admission shedding** — an overloaded shared-device run at several
   ``admission_queue_slack`` settings; the counters show load shedding
   trading completed work (``requests_shed``) for a bounded served tail.

Results are printed, persisted under ``benchmarks/results/`` and written as
JSON to ``BENCH_shared_device.json`` at the repository root: the full-sized
sections.  ``--smoke`` runs the suite at :data:`SMOKE_PARAMS`, prints it and
writes nothing.  The simulation is a deterministic function of (store, trace,
config, seed), so the smoke suite is pinned exactly as the golden-ledger entry
``smoke_shared_device`` (``tests/test_benchmarks.py``).
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import json
import os
import sys
from typing import Any, Dict

from benchmarks.common import build_store, saturation_rate_rps, save_result, warm_store
from repro.core.config import ServingConfig
from repro.serving import simulate_serving
from repro.simulation.report import format_table

#: Two tables with asymmetric traffic (table1 is the heavy hitter): the
#: co-hosting story needs one table's load to spill into the other's tail.
TABLES = ["table1", "table7"]
#: Fraction of the evaluation trace replayed untimed to warm the caches.
WARMUP_FRACTION = 0.3
MAX_BATCH = 16
MAX_LINGER_US = 300.0
SLO_LATENCY_US = 2000.0
#: Arrival rates of the contention sweep, as fractions of the analytic
#: device-saturation rate; the top point is past the knee on purpose.
LOAD_FRACTIONS = (0.1, 0.25, 0.5, 0.9, 1.2)
#: SLO-violation rate a load point must stay under to count as capacity.
CAPACITY_VIOLATION_RATE = 0.01
#: Client population of the closed-loop arm (think time derived per rate).
CLOSED_LOOP_CLIENTS = 32
#: Slack settings of the shedding section (None = shedding off).
SHED_SLACKS = (None, 1.0, 0.25)
#: Overload multiple of the saturation rate for the shedding section.
SHED_OVERLOAD = 2.0

#: The CI-sized configuration of ``--smoke`` and of the ledger entry
#: ``smoke_shared_device``.
SMOKE_PARAMS = dict(eval_multiplier=3, num_requests=900)
FULL_PARAMS = dict(eval_multiplier=24, num_requests=8000)

JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_shared_device.json")

#: Host device banks compared: mode label -> ``devices_per_host``.
MODES = {"per-table": len(TABLES), "shared-1": 1}


def _serve(store, serve_trace, warm_trace, config, num_requests):
    warm_store(store, warm_trace)
    return simulate_serving(
        store, serve_trace, config=config, num_requests=num_requests, reset_first=False
    )


def _summarise(report) -> Dict[str, object]:
    """The fields the artifact and the ledger entry keep per run."""
    summary: Dict[str, object] = {
        "p50_us": round(report.latency.p50_us, 3),
        "p99_us": round(report.latency.p99_us, 3),
        "p999_us": round(report.latency.p999_us, 3),
        "mean_us": round(report.latency.mean_us, 3),
        "throughput_rps": round(report.throughput_rps, 3),
        "offered_rate_rps": round(report.offered_rate_rps, 3),
        "slo_violation_rate": round(report.slo_violation_rate, 6),
        "blocks_read": report.blocks_read,
        "requests_shed": report.requests_shed,
        "shed_rate": round(report.shed_rate, 6),
        "unsupported_percentiles": report.latency.unsupported_percentiles(),
    }
    summary["device_busy_us"] = [
        round(device["busy_us"], 1) for device in report.device_bank["per_device"]
    ]
    summary["table_mapping"] = report.device_bank["table_mapping"]
    return summary


def contention_sweep(store, warm_trace, serve_trace, sat_rps, num_requests):
    """Section 1: private vs shared devices across the load sweep."""
    points = []
    for fraction in LOAD_FRACTIONS:
        rate = fraction * sat_rps
        point: Dict[str, object] = {
            "load_fraction": fraction,
            "arrival_rate_rps": round(rate, 1),
        }
        for mode, devices in MODES.items():
            report = _serve(
                store,
                serve_trace,
                warm_trace,
                ServingConfig(
                    arrival_rate_rps=rate,
                    max_batch_requests=MAX_BATCH,
                    max_linger_us=MAX_LINGER_US,
                    slo_latency_us=SLO_LATENCY_US,
                    seed=13,
                    devices_per_host=devices,
                ),
                num_requests,
            )
            point[mode] = _summarise(report)
        shared = point["shared-1"]
        per_table = point["per-table"]
        point["shared_p999_excess"] = round(
            shared["p999_us"] / per_table["p999_us"], 3
        )
        points.append(point)
    capacity = {}
    for mode in MODES:
        ok = [
            p["arrival_rate_rps"]
            for p in points
            if p[mode]["slo_violation_rate"] <= CAPACITY_VIOLATION_RATE
        ]
        capacity[mode] = max(ok) if ok else 0.0
    return {"points": points, "capacity_rps": capacity}


def loop_comparison(store, warm_trace, serve_trace, sat_rps, num_requests):
    """Section 2: open vs closed loop at matched offered load."""
    arms = []
    for fraction in (0.8, 1.5):
        rate = fraction * sat_rps
        open_report = _serve(
            store,
            serve_trace,
            warm_trace,
            ServingConfig(
                arrival_rate_rps=rate,
                max_batch_requests=MAX_BATCH,
                max_linger_us=MAX_LINGER_US,
                slo_latency_us=SLO_LATENCY_US,
                seed=13,
                devices_per_host=MODES["shared-1"],
            ),
            num_requests,
        )
        closed_report = _serve(
            store,
            serve_trace,
            warm_trace,
            ServingConfig(
                arrival_process="closed-loop",
                closed_loop_clients=CLOSED_LOOP_CLIENTS,
                closed_loop_think_s=CLOSED_LOOP_CLIENTS / rate,
                max_batch_requests=MAX_BATCH,
                max_linger_us=MAX_LINGER_US,
                slo_latency_us=SLO_LATENCY_US,
                seed=13,
                devices_per_host=MODES["shared-1"],
            ),
            num_requests,
        )
        arms.append(
            {
                "load_fraction": fraction,
                "offered_rate_rps": round(rate, 1),
                "closed_loop_clients": CLOSED_LOOP_CLIENTS,
                "open": _summarise(open_report),
                "closed": _summarise(closed_report),
            }
        )
    return {"arms": arms}


def shedding_study(store, warm_trace, serve_trace, sat_rps, num_requests):
    """Section 3: admission control under a shared device at overload."""
    rate = SHED_OVERLOAD * sat_rps
    rows = []
    for slack in SHED_SLACKS:
        report = _serve(
            store,
            serve_trace,
            warm_trace,
            ServingConfig(
                arrival_rate_rps=rate,
                max_batch_requests=MAX_BATCH,
                max_linger_us=MAX_LINGER_US,
                slo_latency_us=SLO_LATENCY_US,
                seed=13,
                devices_per_host=MODES["shared-1"],
                admission_queue_slack=slack,
            ),
            num_requests,
        )
        rows.append({"admission_queue_slack": slack, **_summarise(report)})
    return {"arrival_rate_rps": round(rate, 1), "rows": rows}


def run_suite(eval_multiplier: int, num_requests: int) -> Dict[str, object]:
    """All three sections at one workload size (deterministic in the seed)."""
    store, eval_trace = build_store(TABLES, eval_multiplier)
    warm_trace, serve_trace = eval_trace.split(WARMUP_FRACTION)
    sat_rps = saturation_rate_rps(store, warm_trace, serve_trace)
    return {
        "tables": list(TABLES),
        "eval_multiplier": eval_multiplier,
        "num_requests": num_requests,
        "saturation_rate_rps": round(sat_rps, 1),
        "slo_latency_us": SLO_LATENCY_US,
        "contention": contention_sweep(
            store, warm_trace, serve_trace, sat_rps, num_requests
        ),
        "loop": loop_comparison(store, warm_trace, serve_trace, sat_rps, num_requests),
        "shedding": shedding_study(
            store, warm_trace, serve_trace, sat_rps, num_requests
        ),
    }


def _pctl(summary: Dict[str, object], field: str) -> str:
    flag = "*" if field in summary.get("unsupported_percentiles", ()) else ""
    return f"{summary[field]:,.0f}{flag}"


def _format(suite: Dict[str, Any]) -> str:
    lines = [
        f"shared-device study on {'+'.join(suite['tables'])} "
        f"({suite['num_requests']} requests/run, saturation "
        f"~{suite['saturation_rate_rps']:,.0f} rps)",
    ]
    headers = ["load", "mode", "p50 (us)", "p999 (us)", "tput (rps)", "SLO viol"]
    rows = []
    for point in suite["contention"]["points"]:
        for mode in MODES:
            s = point[mode]
            rows.append(
                [
                    f"{point['load_fraction']:.2f}x",
                    mode,
                    _pctl(s, "p50_us"),
                    _pctl(s, "p999_us"),
                    f"{s['throughput_rps']:,.0f}",
                    f"{100 * s['slo_violation_rate']:.1f}%",
                ]
            )
    lines.append(format_table(headers, rows))
    capacity = suite["contention"]["capacity_rps"]
    lines.append(
        "capacity (highest swept rate with <=1% SLO violations): "
        + ", ".join(f"{mode} {rate:,.0f} rps" for mode, rate in capacity.items())
    )
    headers = ["load", "arm", "offered", "tput", "p999 (us)", "SLO viol"]
    rows = []
    for arm in suite["loop"]["arms"]:
        for name in ("open", "closed"):
            s = arm[name]
            rows.append(
                [
                    f"{arm['load_fraction']:.2f}x",
                    name,
                    f"{s['offered_rate_rps']:,.0f}",
                    f"{s['throughput_rps']:,.0f}",
                    _pctl(s, "p999_us"),
                    f"{100 * s['slo_violation_rate']:.1f}%",
                ]
            )
    lines.append(format_table(headers, rows))
    headers = ["slack", "shed", "shed rate", "p999 (us)", "tput (rps)"]
    rows = []
    for row in suite["shedding"]["rows"]:
        slack = row["admission_queue_slack"]
        rows.append(
            [
                "off" if slack is None else f"{slack:.2f}",
                row["requests_shed"],
                f"{100 * row['shed_rate']:.1f}%",
                _pctl(row, "p999_us"),
                f"{row['throughput_rps']:,.0f}",
            ]
        )
    lines.append(
        f"admission shedding at {suite['shedding']['arrival_rate_rps']:,.0f} rps "
        "(shared device):"
    )
    lines.append(format_table(headers, rows))
    if any(
        p[mode]["unsupported_percentiles"]
        for p in suite["contention"]["points"]
        for mode in MODES
    ):
        lines.append(
            "* percentile computed from fewer samples than its rank requires"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        print(_format(run_suite(**SMOKE_PARAMS)))
    else:
        result = {"full": run_suite(**FULL_PARAMS)}
        save_result("shared_device", _format(result["full"]))
        with open(JSON_PATH, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
