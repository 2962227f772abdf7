"""Replay-engine throughput: reference loop vs. batch engine.

Times :func:`repro.caching.replay.replay_table_cache` (the per-vector
reference loop) against :func:`repro.caching.engine.replay_table_cache_batched`
on the standard synthetic workload (table2, SHP placement) over a long
steady-state evaluation stream, and verifies that both produce bit-identical
``ReplayStats`` counters while timing them.

Four configurations cover the replay regimes the repository actually runs:

* ``placement-study`` — unlimited cache, cache-all-block prefetch: the
  replay the paper's placement evaluations (Figures 6, 8, 9) describe (the
  library counts that study instead of replaying it).
* ``serving-tuned`` — limited cache with the tuned access-threshold policy:
  Bandana's deployed serving configuration (Figure 12 operating point).  This
  is the headline configuration whose speedup seeds the perf trajectory.
* ``baseline-no-prefetch`` — limited cache, no prefetching: the paper's
  comparison baseline.
* ``miss-heavy-evicting`` — cache of 1/8 of the vectors, cache-all-block
  prefetch (Figure 10): nearly every miss admits a block's worth of vectors
  and evicts as many.  The other three sit above a 92 % hit rate, which is how
  a 13 µs demand miss once went unseen here.

Results are printed, persisted under ``benchmarks/results/`` and written as
machine-readable JSON to ``BENCH_replay_throughput.json`` at the repository
root (lookups/sec per engine and configuration, plus the headline speedup) so
future PRs can track the perf trajectory.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import json
import os
import time

from benchmarks.common import (
    build_table_workload,
    cache_sizes_for,
    save_result,
    threshold_candidates,
)
from repro.caching.engine import BatchReplayEngine
from repro.caching.replay import replay_table_cache
from repro.caching.policies import (
    AccessThresholdPolicy,
    CacheAllBlockPolicy,
    NoPrefetchPolicy,
)
from repro.workloads import scaled_table_specs

TABLE = "table2"
#: Steady-state multiplier over the standard evaluation trace length.
EVAL_MULTIPLIER = 8
#: Interleaved timing rounds per engine (best-of is reported).
ROUNDS = 3

JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_replay_throughput.json")

#: Steady-state multiplier of the CI-sized ``smoke_wall_clock`` section
#: (the loose perf-track legs re-time these configurations on every runner).
SMOKE_EVAL_MULTIPLIER = 1


def _counters(stats):
    return stats.counters()


def _miss_heavy_cache_size(workload):
    """The bounded cache of the miss-heavy configuration: 1/8 of the vectors."""
    return workload.spec.num_vectors // 8


def _time_config(queries, layout, make_policy, cache_size, vector_bytes=128):
    """Best-of-N interleaved timing of both engines; returns a result dict."""
    ref_times, bat_times = [], []
    ref_stats = bat_stats = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        ref_stats = replay_table_cache(
            queries, layout, make_policy(), cache_size=cache_size,
            vector_bytes=vector_bytes,
        )
        ref_times.append(time.perf_counter() - start)

        engine = BatchReplayEngine(
            layout, make_policy(), cache_size=cache_size, vector_bytes=vector_bytes
        )
        start = time.perf_counter()
        bat_stats = engine.replay(queries)
        bat_times.append(time.perf_counter() - start)

    if _counters(ref_stats) != _counters(bat_stats):
        raise AssertionError(
            f"engine mismatch: reference {_counters(ref_stats)} "
            f"!= batched {_counters(bat_stats)}"
        )
    lookups = ref_stats.lookups
    ref_lps = lookups / min(ref_times)
    bat_lps = lookups / min(bat_times)
    return {
        "lookups": int(lookups),
        "hit_rate": round(ref_stats.hit_rate, 4),
        "reference_lookups_per_sec": round(ref_lps),
        "batched_lookups_per_sec": round(bat_lps),
        "speedup": round(bat_lps / ref_lps, 2),
    }


def run_throughput(workload):
    eval_trace = workload.generator.generate_lookups(
        EVAL_MULTIPLIER * workload.evaluation.num_lookups
    )
    queries = eval_trace.queries
    layout = workload.shp_layout
    sizes = cache_sizes_for(workload)
    thresholds = threshold_candidates(workload)
    serving_cache = sizes[-1]           # 60 % of the evaluation working set
    serving_threshold = thresholds[-1]  # selective tuned operating point

    configs = {
        "placement-study": _time_config(
            queries, layout, CacheAllBlockPolicy, cache_size=None
        ),
        "serving-tuned": _time_config(
            queries,
            layout,
            lambda: AccessThresholdPolicy(workload.access_counts, serving_threshold),
            cache_size=serving_cache,
        ),
        "baseline-no-prefetch": _time_config(
            queries, layout, NoPrefetchPolicy, cache_size=serving_cache
        ),
        "miss-heavy-evicting": _time_config(
            queries,
            layout,
            CacheAllBlockPolicy,
            cache_size=_miss_heavy_cache_size(workload),
        ),
    }
    result = {
        "table": TABLE,
        "eval_lookups": int(eval_trace.num_lookups),
        "num_vectors": int(workload.spec.num_vectors),
        "serving_cache_size": int(serving_cache),
        "serving_threshold": float(serving_threshold),
        "configs": configs,
        # Headline: Bandana's deployed configuration, the one every store,
        # tuner and cluster node serves.
        "speedup": configs["serving-tuned"]["speedup"],
        "smoke_wall_clock": measure_smoke_wall_clock(workload),
    }
    return result


def measure_smoke_wall_clock(workload=None):
    """CI-sized wall-clock reference: the batched engine over a short stream.

    Two legs, one per eviction regime: ``placement-study`` (a cache as large
    as the table, which never fills) and ``miss-heavy-evicting``.
    ``benchmarks/perf_track.py`` re-times both on every runner and compares
    ``batched_lookups_per_sec`` against the committed numbers with a loose
    ratio floor — tolerant of runner noise, loud on order-of-magnitude
    engine regressions.  The reference loop is deliberately excluded: it is
    ~10x slower and its parity with the batched engine is already enforced
    counter-for-counter by :func:`_time_config`.
    """
    if workload is None:
        spec = scaled_table_specs(1.0 / 1000.0, names=[TABLE])[TABLE]
        workload = build_table_workload(spec, seed=101)
    eval_trace = workload.generator.generate_lookups(
        SMOKE_EVAL_MULTIPLIER * workload.evaluation.num_lookups
    )
    legs = {}
    for name, cache_size in (
        ("placement-study", None),
        ("miss-heavy-evicting", _miss_heavy_cache_size(workload)),
    ):
        times = []
        stats = None
        for _ in range(ROUNDS):
            engine = BatchReplayEngine(
                workload.shp_layout, CacheAllBlockPolicy(), cache_size=cache_size
            )
            start = time.perf_counter()
            stats = engine.replay(eval_trace.queries)
            times.append(time.perf_counter() - start)
        lookups = int(stats.lookups)
        legs[name] = {
            "eval_lookups": lookups,
            "hit_rate": round(stats.hit_rate, 4),
            "batched_lookups_per_sec": round(lookups / min(times)),
        }
    return legs


def _format_table(result):
    lines = [
        f"replay throughput on {result['table']} "
        f"({result['eval_lookups']} lookups, {result['num_vectors']} vectors)",
        f"{'config':<22} {'hit':>5} {'reference/s':>12} {'batched/s':>12} {'speedup':>8}",
    ]
    for name, cfg in result["configs"].items():
        lines.append(
            f"{name:<22} {cfg['hit_rate']:>5.2f} "
            f"{cfg['reference_lookups_per_sec']:>12,} "
            f"{cfg['batched_lookups_per_sec']:>12,} {cfg['speedup']:>7.2f}x"
        )
    lines.append(f"headline speedup (serving-tuned): {result['speedup']:.2f}x")
    return "\n".join(lines)


def _write_outputs(result):
    save_result("replay_throughput", _format_table(result))
    with open(JSON_PATH, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")


def test_replay_throughput(bundle):
    result = run_throughput(bundle[TABLE])
    _write_outputs(result)
    # The acceptance bar: the engine serves Bandana's deployed configuration
    # at least 5x faster than the reference loop (counters already verified
    # equal).
    assert result["speedup"] >= 5.0, result


if __name__ == "__main__":
    spec = scaled_table_specs(1.0 / 1000.0, names=[TABLE])[TABLE]
    result = run_throughput(build_table_workload(spec, seed=101))
    _write_outputs(result)
    print(f"headline speedup: {result['speedup']:.2f}x")
