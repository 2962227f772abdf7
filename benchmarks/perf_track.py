"""Perf tracking: compare fresh benchmark numbers against the committed JSONs.

Run from the repository root (the CI perf-track job does)::

    python benchmarks/perf_track.py

Every tracked artifact gets one or both of two leg kinds, with deliberately
different tolerances:

1. **Simulated metrics (tight).**  The artifact carries a ``smoke_reference``
   section produced at the owning benchmark's CI-sized ``SMOKE_PARAMS``
   configuration.  Each suite is a deterministic function of
   (store, trace, config, seed) — no wall clock anywhere — so this leg
   regenerates the section and compares **every** recorded number with a 1%
   relative tolerance (platform float drift only; any real behaviour change
   lands far outside it).  A mismatch means a change altered simulated
   behaviour without regenerating the benchmark artifact: either a
   regression, or an intended change whose author must rerun the owning
   benchmark and commit the JSON.
2. **Wall-clock throughput (loose).**  The committed artifact records a
   throughput measured at commit time.  CI runners are noisy and slower than
   dev machines, so this leg only fails when fresh throughput drops below
   ``WALL_CLOCK_FLOOR`` (default 0.2x) of the committed number — tolerant
   of runner noise, loud on order-of-magnitude algorithmic regressions.
   Skipped (with a notice) when the artifact has no wall-clock section
   (i.e. only ``--smoke`` runs were committed).

Tracked artifacts (one :data:`TRACKED` row each):

* ``BENCH_shared_device.json`` — tight smoke reference + loose replay
  wall clock (:mod:`bench_shared_device`).
* ``BENCH_scenarios.json`` — tight smoke reference + loose scenario-replay
  wall clock (:mod:`bench_scenarios`).
* ``BENCH_serving_latency.json`` — tight smoke reference: the full load
  sweep at the CI-sized configuration (:mod:`bench_serving_latency`).
* ``BENCH_cluster_failures.json`` — tight smoke reference: every fault
  scenario row at the CI-sized configuration (:mod:`bench_cluster_failures`).
* ``BENCH_replay_throughput.json`` — loose only: the whole artifact is
  wall-clock timings, gated through the two legs of its CI-sized
  ``smoke_wall_clock`` section — a cache as large as the table, and a
  miss-heavy evicting one (:mod:`bench_replay_throughput`).

Exit status is non-zero on any regression, and every offending metric is
printed with its committed and fresh values.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import json
import math
import os
import sys
from types import ModuleType
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import bench_cluster_failures
import bench_replay_throughput
import bench_scenarios
import bench_serving_latency
import bench_shared_device

#: Relative tolerance of the simulated leg (deterministic numbers).
SIM_RTOL = 0.01
#: Fresh wall-clock throughput must stay above this fraction of committed.
WALL_CLOCK_FLOOR = 0.2
#: Keys that hold measured wall-clock durations — the only non-simulated
#: numbers inside a ``smoke_reference`` section (e.g. the lifecycle's SHP
#: retrain cost).  The tight leg skips them; runner speed is not behaviour.
WALL_CLOCK_KEYS = frozenset({"retrain_runtime_seconds"})


def compare_trees(committed: Any, fresh: Any, path: str, problems: List[str]) -> None:
    """Recursively compare two JSON trees, recording every numeric drift."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
            if key in WALL_CLOCK_KEYS:
                continue
            if key not in committed or key not in fresh:
                problems.append(f"{path}.{key}: present on only one side")
                continue
            compare_trees(committed[key], fresh[key], f"{path}.{key}", problems)
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            problems.append(
                f"{path}: length {len(committed)} (committed) vs {len(fresh)} (fresh)"
            )
            return
        for i, (a, b) in enumerate(zip(committed, fresh)):
            compare_trees(a, b, f"{path}[{i}]", problems)
    elif isinstance(committed, bool) or isinstance(fresh, bool):
        if committed != fresh:
            problems.append(f"{path}: {committed} (committed) vs {fresh} (fresh)")
    elif isinstance(committed, (int, float)) and isinstance(fresh, (int, float)):
        if not math.isclose(committed, fresh, rel_tol=SIM_RTOL, abs_tol=1e-9):
            problems.append(f"{path}: {committed} (committed) vs {fresh} (fresh)")
    elif committed != fresh:
        problems.append(f"{path}: {committed!r} (committed) vs {fresh!r} (fresh)")


def check_simulated(
    artifact: str,
    committed: Dict[str, Any],
    regenerate: Callable[[], Dict[str, Any]],
    rerun_hint: str,
) -> List[str]:
    """Tight leg: the deterministic smoke-reference numbers must reproduce."""
    reference = committed.get("smoke_reference")
    if reference is None:
        return [f"{artifact} has no smoke_reference section; rerun {rerun_hint}"]
    fresh = regenerate()
    problems: List[str] = []
    compare_trees(reference, fresh, f"{artifact}:smoke_reference", problems)
    return problems


def check_wall_clock(
    artifact: str,
    committed: Optional[Dict[str, Any]],
    fresh: Dict[str, Any],
    rate_key: str,
) -> List[str]:
    """Loose leg: a wall-clock throughput must stay within a ratio floor."""
    if committed is None:
        print(
            f"perf-track: {artifact} has no wall-clock section "
            "(smoke-only run committed); skipping its wall-clock leg"
        )
        return []
    committed_rate = float(committed[rate_key])
    fresh_rate = float(fresh[rate_key])
    ratio = fresh_rate / committed_rate
    print(
        f"perf-track: {artifact} {rate_key} {fresh_rate:,.0f} fresh vs "
        f"{committed_rate:,.0f} committed ({ratio:.2f}x, floor "
        f"{WALL_CLOCK_FLOOR:.2f}x)"
    )
    if ratio < WALL_CLOCK_FLOOR:
        return [
            f"{artifact}:{rate_key}: {fresh_rate:,.0f} fresh is below "
            f"{WALL_CLOCK_FLOOR:.2f}x of the committed {committed_rate:,.0f} — "
            "an order-of-magnitude regression, not runner noise"
        ]
    return []


def _load(json_path: str, name: str, problems: List[str]) -> Optional[Dict[str, Any]]:
    try:
        with open(json_path) as handle:
            data = json.load(handle)
            assert isinstance(data, dict)
            return data
    except FileNotFoundError:
        problems.append(
            f"{name} is missing; run its benchmark and commit the artifact"
        )
        return None


class Tracked(NamedTuple):
    """One committed artifact and how to re-derive its tracked numbers."""

    #: The owning benchmark script; its ``JSON_PATH`` is the artifact.
    bench: ModuleType
    #: Fresh ``smoke_reference`` section (the tight leg), or ``None``.
    regenerate: Optional[Callable[[], Dict[str, Any]]]
    #: Key of the artifact's wall-clock section (the loose leg).
    wall_key: str = ""
    #: Fresh wall-clock section, measured as the committed one describes;
    #: ``None`` when the artifact has no loose leg.
    measure: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
    #: The throughput key each leg compares.
    rate_key: str = ""
    #: Named legs inside the wall-clock section (``None``: it is one leg).
    legs: Tuple[Optional[str], ...] = (None,)


TRACKED: Tuple[Tracked, ...] = (
    Tracked(
        bench_shared_device,
        lambda: bench_shared_device.run_suite(**bench_shared_device.SMOKE_PARAMS),
        "wall_clock",
        lambda wall: bench_shared_device.measure_wall_clock(
            eval_multiplier=wall["eval_multiplier"]
        ),
        "lookups_per_sec",
    ),
    Tracked(
        bench_scenarios,
        lambda: bench_scenarios.run_suite(**bench_scenarios.SMOKE_PARAMS),
        "wall_clock",
        lambda wall: bench_scenarios.measure_wall_clock(num_queries=wall["num_queries"]),
        "queries_per_sec",
    ),
    Tracked(
        bench_serving_latency,
        lambda: bench_serving_latency.run_sweep(**bench_serving_latency.SMOKE_PARAMS),
    ),
    Tracked(
        bench_cluster_failures,
        lambda: bench_cluster_failures.run_sweep(**bench_cluster_failures.SMOKE_PARAMS),
    ),
    Tracked(
        bench_replay_throughput,
        None,
        "smoke_wall_clock",
        lambda legs: bench_replay_throughput.measure_smoke_wall_clock(),
        "batched_lookups_per_sec",
        ("placement-study", "miss-heavy-evicting"),
    ),
)


def check(tracked: Tracked, problems: List[str]) -> None:
    """Both legs of one tracked artifact, appending every regression."""
    artifact = os.path.basename(tracked.bench.JSON_PATH)
    committed = _load(tracked.bench.JSON_PATH, artifact, problems)
    if committed is None:
        return
    if tracked.regenerate is not None:
        problems += check_simulated(
            artifact,
            committed,
            tracked.regenerate,
            f"python benchmarks/{tracked.bench.__name__}.py",
        )
    if tracked.measure is None:
        return
    wall = committed.get(tracked.wall_key)
    fresh = tracked.measure(wall) if wall else {}
    for leg in tracked.legs:
        if leg is None:
            problems += check_wall_clock(artifact, wall, fresh, tracked.rate_key)
        else:
            problems += check_wall_clock(
                f"{artifact}[{leg}]",
                (wall or {}).get(leg),
                fresh.get(leg, {}),
                tracked.rate_key,
            )


def main() -> int:
    problems: List[str] = []
    for tracked in TRACKED:
        check(tracked, problems)
    if problems:
        print(f"perf-track: {len(problems)} regression(s) against committed artifacts:")
        for problem in problems:
            print(f"  {problem}")
        print(
            "If this change is intentional, rerun the owning benchmark(s) "
            "and commit the regenerated JSON artifact(s)."
        )
        return 1
    print("perf-track: all tracked numbers match the committed artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
