#!/usr/bin/env python3
"""One two-clock benchmark for the whole stack.

    python3 benchmarks/perf/run.py --workload serve-host --seed 7 --seconds 14 --trace 0

builds the workload's inputs from the seed, drives the stack through public
``repro.*`` entry points only, prints every metric by name with its unit and
some provenance, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  A failed correctness check exits non-zero without a result line.
``--selfcheck`` runs every workload in both modes at toy sizes and validates
what they print against ``BENCHMARK.json``.  See ``README.md`` beside this
file for the metric glossary and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"


def _bootstrap() -> None:
    """Put the benchmark package and the repository's ``src`` on ``sys.path``."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT / 'src' / 'repro'} not found: nothing to benchmark")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=7, help="seed of every generated input")
    parser.add_argument(
        "--seconds",
        type=float,
        help="host-clock budget for repeating the timed region "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="0: end-to-end metrics; 1: per-layer metrics of a separate traced run",
    )
    parser.add_argument("--selfcheck", action="store_true")
    return parser.parse_args(argv)


def _units(manifest: Dict[str, Any], traced: bool) -> Dict[str, str]:
    section = manifest["per_layer" if traced else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def _result_line(result: Any, units: Dict[str, str]) -> Dict[str, Any]:
    """The final JSON object; the metric names must be exactly the manifest's."""
    missing = sorted(set(units) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(units))
    if missing or extra:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: -{missing} +{extra}")
    for name, value in result.metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"metric {name} is not finite: {value!r}")
    return {
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _print_run(result: Any, line: Dict[str, Any]) -> None:
    provenance = result.provenance
    print(
        f"# {provenance['workload']} seed={provenance['seed']} "
        f"traced={provenance['traced']} budget_s={provenance['budget_s']} "
        f"nproc={provenance['nproc']} python={provenance['python']} "
        f"numpy={provenance['numpy']}"
    )
    for leg in ("setup", "host"):
        timing = provenance[leg]
        print(
            f"# {leg}: {timing['calibrated_s']:.4f} calibrated s over {timing['repeats']} "
            f"repeats (raw: sum of per-step minima {timing['raw_best_s']:.4f} s, median "
            f"{timing['raw_median_s']:.4f} s, IQR {timing['raw_iqr_s']:.4f} s; reference "
            f"kernel median {timing['kernel_median_s'] * 1e3:.2f} ms)"
        )
    if "notes" in provenance:
        for note in provenance["notes"]:
            print(f"# {note}")
        print(
            "# paper (Bandana, MLSys'19): effective bandwidth gain 2-3x over the "
            "no-prefetch baseline (sim_bw_gain here: 1.0x = no gain); the "
            "NVM/queueing model here is unvalidated against hardware, so no error "
            "figure is given"
        )
    print(
        f"# operations ({provenance['operations']}): attempted "
        f"{result.attempted}, failed {result.failed}"
    )
    width = max(len(name) for name in line["metrics"])
    for name, entry in line["metrics"].items():
        print(f"{name:<{width}}  {entry['value']!r:>24}  {entry['unit']}")
    print("provenance " + json.dumps(provenance, default=str))


# ------------------------------------------------------------------ selfcheck
_NAME = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")

#: Layers that must read zero off their own workload ("serving.* is zero
#: elsewhere") and non-zero on it.
_EXCLUSIVE_LAYERS = {
    "serving.": ("serve-host",),
    "cluster.": ("serve-cluster",),
    "scenarios.": ("drift-repartition",),
}
#: Per-layer values that may legitimately read zero on their own workload.
_MAY_BE_ZERO = {
    "serving.requests_shed",
    "cluster.timeouts",
    "cluster.retries",
    "cluster.hedges_launched",
    "cluster.hedge_win_share",
    "cluster.breaker_ejections",
    "cluster.sheds",
    "cluster.node_queue_sim_us_mean",
}


def _check_manifest(manifest: Dict[str, Any]) -> List[str]:
    """Violations of the manifest contract (empty: valid)."""
    problems: List[str] = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(manifest) != expected:
        problems.append(f"keys {sorted(manifest)} != {sorted(expected)}")
        return problems
    names: List[str] = []
    for section, keys in (
        ("workloads", {"name", "why"}),
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for entry in manifest[section]:
            if set(entry) != keys:
                problems.append(f"{section} entry {entry} needs exactly {sorted(keys)}")
                continue
            names.append(entry["name"])
            if not (0 < len(entry["name"]) <= 64 and set(entry["name"]) <= _NAME):
                problems.append(f"bad name {entry['name']!r}")
            if "better" in entry and entry["better"] not in ("lower", "higher"):
                problems.append(f"{entry['name']}: better={entry['better']!r}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"{entry['name']}: bound {entry['bound']} not in (0, 0.25]")
            if "why" in entry and ("\n" in entry["why"] or len(entry["why"]) > 200):
                problems.append(f"{entry['name']}: why must be one line of <= 200 chars")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if not (isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    return problems


def _selfcheck(manifest: Dict[str, Any]) -> int:
    """All workloads, both modes, toy sizes; validate what they would print."""
    from perfbench.harness import run_workload
    from perfbench.workloads import TOY, WORKLOADS

    started = time.perf_counter()
    problems = _check_manifest(manifest)
    listed = [entry["name"] for entry in manifest["workloads"]]
    if sorted(listed) != sorted(WORKLOADS):
        problems.append(f"manifest workloads {listed} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for traced in (False, True):
            result = run_workload(
                name, 7, 0.0, traced, TOY, setup_repeats=1, min_repeats=2,
                instrumented_runs=1,
            )
            line = _result_line(result, _units(manifest, traced))
            json.dumps(line)
            if result.attempted < 1 or not 0 <= result.failed <= result.attempted:
                problems.append(f"{name}: attempted {result.attempted}, failed {result.failed}")
            for metric, value in result.metrics.items():
                if not traced:
                    if value <= 0:
                        problems.append(f"{name}: end-to-end {metric} = {value!r}")
                    continue
                for prefix, owners in _EXCLUSIVE_LAYERS.items():
                    if not metric.startswith(prefix):
                        continue
                    if name in owners and value == 0 and metric not in _MAY_BE_ZERO:
                        problems.append(f"{name}: {metric} reads 0 on its own workload")
                    if name not in owners and value != 0:
                        problems.append(f"{name}: {metric} = {value!r}, expected 0")
            print(f"selfcheck {name} trace={int(traced)}: {len(result.metrics)} metrics ok")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print(f"selfcheck took {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    _bootstrap()
    from perfbench.checks import CheckFailed
    from perfbench.harness import run_workload
    from perfbench.workloads import FULL, WORKLOADS

    manifest = json.loads(MANIFEST.read_text())
    try:
        if args.selfcheck:
            return _selfcheck(manifest)
        if args.workload not in WORKLOADS:
            raise SystemExit(f"--workload must be one of {sorted(WORKLOADS)}")
        seconds = manifest["run_seconds"] if args.seconds is None else args.seconds
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), FULL)
    except CheckFailed as failure:
        print(f"correctness check failed: {failure}", file=sys.stderr)
        return 1
    line = _result_line(result, _units(manifest, bool(args.trace)))
    _print_run(result, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
