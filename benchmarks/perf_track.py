"""Perf tracking: compare fresh wall-clock throughputs against the committed JSONs.

Run from the repository root (the CI perf-track job does)::

    python benchmarks/perf_track.py

Each committed artifact records a throughput measured at commit time.  CI
runners are noisy and slower than dev machines, so a leg only fails when
fresh throughput drops below ``WALL_CLOCK_FLOOR`` (0.2x) of the committed
number — tolerant of runner noise, loud on order-of-magnitude algorithmic
regressions.  A committed artifact without its wall-clock section fails: only
a full benchmark run writes an artifact, and it always writes that section.

The simulated numbers are not tracked here: each benchmark's smoke suite is
an exact entry of the golden ledger (``tests/goldens.json``, checked by
``tests/test_benchmarks.py`` in tier-1).

Tracked artifacts (one :data:`TRACKED` row each):

* ``BENCH_shared_device.json`` — replay wall clock (:mod:`bench_shared_device`).
* ``BENCH_scenarios.json`` — scenario-replay wall clock (:mod:`bench_scenarios`).
* ``BENCH_replay_throughput.json`` — the two legs of its CI-sized
  ``smoke_wall_clock`` section: a cache as large as the table, and a
  miss-heavy evicting one (:mod:`bench_replay_throughput`).

Exit status is non-zero on any regression, and every offending metric is
printed with its committed and fresh values.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import json
import os
import sys
from types import ModuleType
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import bench_replay_throughput
import bench_scenarios
import bench_shared_device

#: Fresh wall-clock throughput must stay above this fraction of committed.
WALL_CLOCK_FLOOR = 0.2


def check_wall_clock(
    artifact: str,
    committed: Optional[Dict[str, Any]],
    fresh: Dict[str, Any],
    rate_key: str,
) -> List[str]:
    """One leg: a wall-clock throughput must stay within a ratio floor."""
    if committed is None:
        return [
            f"{artifact} has no wall-clock section; rerun its benchmark in full "
            "and commit the artifact"
        ]
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
    """One committed artifact and how to re-measure its wall clock."""

    #: The owning benchmark script; its ``JSON_PATH`` is the artifact.
    bench: ModuleType
    #: Key of the artifact's wall-clock section.
    wall_key: str
    #: Fresh wall-clock section, measured as the committed one describes.
    measure: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: The throughput key each leg compares.
    rate_key: str
    #: Named legs inside the wall-clock section (``None``: it is one leg).
    legs: Tuple[Optional[str], ...] = (None,)


TRACKED: Tuple[Tracked, ...] = (
    Tracked(
        bench_shared_device,
        "wall_clock",
        lambda wall: bench_shared_device.measure_wall_clock(
            eval_multiplier=wall["eval_multiplier"]
        ),
        "lookups_per_sec",
    ),
    Tracked(
        bench_scenarios,
        "wall_clock",
        lambda wall: bench_scenarios.measure_wall_clock(num_queries=wall["num_queries"]),
        "queries_per_sec",
    ),
    Tracked(
        bench_replay_throughput,
        "smoke_wall_clock",
        lambda legs: bench_replay_throughput.measure_smoke_wall_clock(),
        "batched_lookups_per_sec",
        ("placement-study", "miss-heavy-evicting"),
    ),
)


def check(tracked: Tracked, problems: List[str]) -> None:
    """Every leg of one tracked artifact, appending every regression."""
    artifact = os.path.basename(tracked.bench.JSON_PATH)
    committed = _load(tracked.bench.JSON_PATH, artifact, problems)
    if committed is None:
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
