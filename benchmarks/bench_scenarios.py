"""Adversarial-workload study: when does Bandana's offline pipeline break?

The store's placement, admission thresholds and DRAM split are all trained
offline on a historical trace (Sections 4.2-4.4 of the paper); this
benchmark measures what that costs once the workload moves:

1. **Drift decay** — community-structured Zipf traffic whose popularity
   ranking starts rotating right after the training split
   (``drift_start_fraction`` = the train fraction).  One arm per rotation
   rate; the windowed hit-rate series decays as the placement goes stale,
   and the early-minus-late decay grows with the drift rate
   (``0.0`` is the stationary control).
2. **Re-partitioning lifecycle** — the fastest-drift trace served twice:
   stale (offline placement only) vs a
   :class:`~repro.scenarios.lifecycle.RepartitionManager` retraining SHP on
   a trailing window and swapping the placement live.  The headline is
   ``recovered_fraction``: how much of the stale arm's early→late hit-rate
   loss the lifecycle wins back in the late windows.
3. **Flash crowd** — a traffic spike concentrated on a crowd of
   previously-cold ids sized to overflow the DRAM cache, served through the
   event-driven front-end at ``FLASH_LOAD`` of the control's analytic
   saturation rate, against that no-flash control.  The crowd's compulsory
   misses push the device past its bound, queue, and surface as the p999
   excess over the control (the section asserts the excess is positive).
4. **Loader characterization** — the committed sample traces under
   ``tests/data/`` through the trace loader, rendered side by side with
   the paper's Table 1 columns.

Results are printed, persisted under ``benchmarks/results/`` and written as
JSON to ``BENCH_scenarios.json`` at the repository root.  The artifact
always carries a ``smoke_reference`` section computed at the CI-sized
configuration: every run is a deterministic function of (trace, config,
seed), so ``benchmarks/perf_track.py`` regenerates it on any runner and
compares numbers with tight tolerances.  A full (non ``--smoke``) run adds
the full-sized sections and a loose wall-clock measurement on top.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import json
import os
import sys
import time
from typing import Dict, List

from benchmarks.common import saturation_rate_rps, save_result
from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig, ServingConfig
from repro.scenarios import (
    RepartitionConfig,
    ScenarioConfig,
    TraceLoaderConfig,
    characterization_report,
    generate_scenario_trace,
    load_trace,
    run_workload_scenario,
)
from repro.serving import simulate_serving
from repro.simulation.report import format_table
from repro.workloads.trace import ModelTrace

JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_scenarios.json")
FIXTURES = {
    "twitter": ("tests/data/sample_twitter_trace.csv", "twitter"),
    "columnar": ("tests/data/sample_columnar_trace.csv", "columnar"),
}

#: Training prefix of every scenario trace; drift begins right after it.
TRAIN_FRACTION = 1.0 / 3.0
SCENARIO_SEED = 7
SERVING_SEED = 11

#: The CI-sized configuration behind the artifact's ``smoke_reference``
#: section (regenerated and compared by ``benchmarks/perf_track.py``).
SMOKE_PARAMS = dict(num_queries=1800, num_vectors=4096, serving_requests=700)
FULL_PARAMS = dict(num_queries=4800, num_vectors=4096, serving_requests=2400)

DRIFT_RATES = (0.0, 0.02, 0.05)

#: Offered load of the flash-crowd section, as a fraction of the control
#: arm's analytic saturation rate (:func:`benchmarks.common.saturation_rate_rps`).
FLASH_LOAD = 0.9


def _store_config(num_vectors: int) -> BandanaConfig:
    """A store where placement is first-order: the DRAM cache holds 1/8 of
    the universe and admission is permissive (the tuned threshold would
    starve prefetching on this workload — see the threshold study in
    ``bench_serving_latency.py`` for where tuning does pay)."""
    return BandanaConfig(
        total_cache_vectors=num_vectors // 8,
        tune_thresholds=False,
        default_threshold=2,
    )


def _scenario(kind: str, num_queries: int, num_vectors: int, **overrides: object) -> ScenarioConfig:
    return ScenarioConfig(
        kind=kind,
        num_queries=num_queries,
        num_vectors=num_vectors,
        drift_epoch_queries=max(1, num_queries // 24),
        drift_start_fraction=TRAIN_FRACTION,
        seed=SCENARIO_SEED,
        **overrides,  # type: ignore[arg-type]
    )


def _drift_section(num_queries: int, num_vectors: int) -> Dict[str, object]:
    """Hit-rate decay vs drift rate for the stale (offline-only) store."""
    config = _store_config(num_vectors)
    window = max(1, num_queries // 24)
    warmup = max(1, num_queries // 12)
    rows: List[Dict[str, object]] = []
    for rate in DRIFT_RATES:
        trace = generate_scenario_trace(
            _scenario("drift", num_queries, num_vectors, drift_rotation_per_epoch=rate)
        )
        report = run_workload_scenario(
            trace,
            config=config,
            train_fraction=TRAIN_FRACTION,
            window_queries=window,
            warmup_queries=warmup,
        )
        rows.append({"drift_rotation_per_epoch": rate, **report.to_dict()})
    return {"window_queries": window, "warmup_queries": warmup, "rows": rows}


def _lifecycle_section(num_queries: int, num_vectors: int) -> Dict[str, object]:
    """Stale vs online-repartitioned serving under moderate drift.

    Measured at the middle drift rate, where retraining pays: at extreme
    rates the trailing window itself spans several rotations, so even a
    fresh placement is trained on a moving target (the drift section's
    fastest arm shows the decay; this section shows the recovery).
    """
    config = _store_config(num_vectors)
    window = max(1, num_queries // 24)
    warmup = max(1, num_queries // 12)
    cadence = max(1, num_queries // 6)
    rate = DRIFT_RATES[1]
    trace = generate_scenario_trace(
        _scenario("drift", num_queries, num_vectors, drift_rotation_per_epoch=rate)
    )
    common = dict(
        config=config,
        train_fraction=TRAIN_FRACTION,
        window_queries=window,
        warmup_queries=warmup,
    )
    stale = run_workload_scenario(trace, **common)  # type: ignore[arg-type]
    repartition = RepartitionConfig(
        cadence_queries=cadence,
        window_queries=2 * cadence,
        min_window_queries=cadence,
        shp_iterations=8,
    )
    repaired = run_workload_scenario(trace, repartition=repartition, **common)  # type: ignore[arg-type]
    lost = stale.early_hit_rate - stale.late_hit_rate
    recovered = (
        (repaired.late_hit_rate - stale.late_hit_rate) / lost if lost > 0 else 0.0
    )
    return {
        "drift_rotation_per_epoch": rate,
        "cadence_queries": cadence,
        "stale": stale.to_dict(),
        "repartitioned": repaired.to_dict(),
        "recovered_fraction": round(recovered, 4),
    }


def _flash_section(
    num_queries: int, num_vectors: int, serving_requests: int
) -> Dict[str, object]:
    """Flash-crowd p999 vs a no-flash control, near device saturation.

    Both arms are offered :data:`FLASH_LOAD` of the control's analytic
    saturation rate: the control stays below the device's bound, and the
    crowd's extra misses push the flash arm past it.
    """
    config = _store_config(num_vectors)
    built = {}
    for name, share in (("flash", 0.8), ("control", 0.0)):
        scenario = _scenario(
            "flash-crowd",
            num_queries,
            num_vectors,
            # Sized to overflow the DRAM cache: the crowd keeps missing for
            # the whole flash window instead of being absorbed by the LRU.
            flash_crowd_ids=num_vectors // 4,
            flash_traffic_share=share,
        )
        train, evaluation = generate_scenario_trace(scenario).split(TRAIN_FRACTION)
        train_trace = ModelTrace({"scenario": train})
        store = BandanaStore.build(train_trace, config)
        built[name] = (store, train_trace, ModelTrace({"scenario": evaluation}))
    rate_rps = FLASH_LOAD * saturation_rate_rps(*built["control"])
    serving = ServingConfig(arrival_rate_rps=rate_rps, seed=SERVING_SEED)
    arms: Dict[str, object] = {}
    for name, (store, _, evaluation_trace) in built.items():
        report = simulate_serving(
            store, evaluation_trace, serving, num_requests=serving_requests
        )
        arms[name] = {
            "num_requests": report.num_requests,
            "hit_rate": round(report.hit_rate, 6),
            "p50_us": round(report.latency.p50_us, 2),
            "p99_us": round(report.latency.p99_us, 2),
            "p999_us": round(report.latency.p999_us, 2),
            "slo_violations": report.slo_violations,
            "throughput_rps": round(report.throughput_rps, 2),
        }
    flash, control = arms["flash"], arms["control"]
    arms["p999_excess_us"] = round(
        float(flash["p999_us"]) - float(control["p999_us"]), 2  # type: ignore[index]
    )
    assert arms["p999_excess_us"] > 0, (
        f"the flash crowd shows no p999 excess over the control at "
        f"{rate_rps:,.0f} rps: {arms}"
    )
    arms["arrival_rate_rps"] = round(rate_rps, 2)
    return arms


def _loader_section() -> Dict[str, object]:
    """The committed sample traces, characterised against paper Table 1."""
    out: Dict[str, object] = {}
    for name, (path, fmt) in FIXTURES.items():
        loaded = load_trace(TraceLoaderConfig(path=path, format=fmt))
        out[name] = characterization_report(loaded, name=f"sample-{name}")
    return out


def run_suite(
    num_queries: int, num_vectors: int, serving_requests: int
) -> Dict[str, object]:
    return {
        "num_queries": num_queries,
        "num_vectors": num_vectors,
        "train_fraction": round(TRAIN_FRACTION, 6),
        "drift_rates": list(DRIFT_RATES),
        "drift": _drift_section(num_queries, num_vectors),
        "lifecycle": _lifecycle_section(num_queries, num_vectors),
        "flash": _flash_section(num_queries, num_vectors, serving_requests),
        "loader": _loader_section(),
    }


def measure_wall_clock(num_queries: int = 2400, num_vectors: int = 4096) -> Dict[str, object]:
    """Loose perf-tracking reference: wall-clock of one stale drift replay."""
    trace = generate_scenario_trace(
        _scenario("drift", num_queries, num_vectors, drift_rotation_per_epoch=0.05)
    )
    config = _store_config(num_vectors)
    start = time.perf_counter()
    report = run_workload_scenario(
        trace, config=config, train_fraction=TRAIN_FRACTION, window_queries=100
    )
    elapsed = time.perf_counter() - start
    lookups = int(
        sum(len(q) for q in trace.queries[len(trace.queries) // 3 :])
    )
    return {
        "num_queries": num_queries,
        "eval_lookups": lookups,
        "overall_hit_rate": round(report.overall_hit_rate, 6),
        "elapsed_s": round(elapsed, 4),
        "queries_per_sec": round(report.num_eval_queries / elapsed, 1),
    }


def _format(result: Dict[str, object]) -> str:
    suite = result["smoke_reference"] if result["smoke"] else result["full"]
    assert isinstance(suite, dict)
    lines = [
        f"adversarial workload study ({suite['num_queries']} queries, "
        f"{suite['num_vectors']} vectors, train fraction "
        f"{suite['train_fraction']:.2f})"
    ]
    rows = []
    for row in suite["drift"]["rows"]:
        rows.append(
            [
                f"{row['drift_rotation_per_epoch']:.2f}",
                f"{row['early_hit_rate']:.3f}",
                f"{row['late_hit_rate']:.3f}",
                f"{row['hit_rate_decay']:.3f}",
                f"{row['overall_hit_rate']:.3f}",
            ]
        )
    lines.append("drift decay (stale SHP placement):")
    lines.append(
        format_table(["rotation/epoch", "early", "late", "decay", "overall"], rows)
    )
    lc = suite["lifecycle"]
    lines.append(
        f"lifecycle at rotation {lc['drift_rotation_per_epoch']:.2f} "
        f"(retrain every {lc['cadence_queries']} queries): "
        f"stale late {lc['stale']['late_hit_rate']:.3f} -> repartitioned late "
        f"{lc['repartitioned']['late_hit_rate']:.3f} "
        f"(recovered {100 * lc['recovered_fraction']:.0f}% of the decay, "
        f"{lc['repartitioned']['repartition']['retrains']} retrains)"
    )
    fl = suite["flash"]
    lines.append(
        f"flash crowd at {fl['arrival_rate_rps']:,.0f} rps: "
        f"p999 {fl['flash']['p999_us']:,.0f} us vs control "
        f"{fl['control']['p999_us']:,.0f} us "
        f"(excess {fl['p999_excess_us']:,.0f} us); hit rate "
        f"{fl['flash']['hit_rate']:.3f} vs {fl['control']['hit_rate']:.3f}"
    )
    for name, report in suite["loader"].items():
        measured = report["measured"]
        lines.append(
            f"loader [{name}]: {measured['num_queries']} queries, "
            f"{measured['num_vectors']} ids, "
            f"{measured['avg_lookups_per_query']:.2f} lookups/query, "
            f"compulsory miss rate {measured['compulsory_miss_rate']:.4f} "
            f"({measured['dropped_rows']}/{measured['source_rows']} rows dropped)"
        )
    return "\n".join(lines)


def _write_outputs(result: Dict[str, object], smoke: bool) -> None:
    if smoke:
        print(_format(result))
    else:
        save_result("scenarios", _format(result))
    with open(JSON_PATH, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    result: Dict[str, object] = {
        "smoke": smoke,
        "smoke_reference": run_suite(**SMOKE_PARAMS),
    }
    if not smoke:
        result["full"] = run_suite(**FULL_PARAMS)
        result["wall_clock"] = measure_wall_clock()
    _write_outputs(result, smoke)
