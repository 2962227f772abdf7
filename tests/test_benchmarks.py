"""What tier-1 pins and checks of the benchmark scripts under ``benchmarks/``.

Each simulated benchmark's CI-sized smoke suite (its ``SMOKE_PARAMS``) is a
golden-ledger entry produced here, compared exactly; the claims its
``--smoke`` run asserts are checked on that same output, and Table 1's
committed artifact must reproduce.  No wall clock is checked here: the host
cost of each benchmarked path is fenced by Python call counts instead
(``tests/test_*_call_budget.py``).
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "benchmarks"))

import bench_cluster_failures  # noqa: E402 - needs benchmarks/ on the path
import bench_scenarios  # noqa: E402
import bench_serving_latency  # noqa: E402
import bench_shared_device  # noqa: E402
import bench_table1_characterization  # noqa: E402

from tests.conftest import first_difference, golden  # noqa: E402


def golden_smoke_serving_latency():
    return bench_serving_latency.run_sweep(**bench_serving_latency.SMOKE_PARAMS)


def golden_smoke_cluster_failures():
    return bench_cluster_failures.run_sweep(**bench_cluster_failures.SMOKE_PARAMS)


def golden_smoke_scenarios():
    """The suite less its one wall-clock number, the lifecycle's SHP retrain time."""
    suite = bench_scenarios.run_suite(**bench_scenarios.SMOKE_PARAMS)
    del suite["lifecycle"]["repartitioned"]["repartition"]["retrain_runtime_seconds"]
    return suite


def golden_smoke_shared_device():
    return bench_shared_device.run_suite(**bench_shared_device.SMOKE_PARAMS)


def test_serving_latency_smoke_reaches_the_capacity_bound():
    assert bench_serving_latency.capacity_shortfalls(golden("smoke_serving_latency")) == []


def test_cluster_failures_smoke_shows_its_claims():
    bench_cluster_failures.check_claims(golden("smoke_cluster_failures"))


def test_scenarios_smoke_flash_crowd_has_a_p999_excess():
    assert golden("smoke_scenarios")["flash"]["p999_excess_us"] > 0


def test_shared_device_smoke():
    golden("smoke_shared_device")


def test_table1_artifact_reproduces():
    committed = json.loads((ROOT / "BENCH_table1_characterization.json").read_text())
    fresh = json.loads(json.dumps(bench_table1_characterization.run_artifact()[0]))
    difference = first_difference(committed, fresh)
    assert difference is None, (
        f"BENCH_table1_characterization.json differs at {difference}; a deliberate "
        "change reruns python benchmarks/bench_table1_characterization.py"
    )
