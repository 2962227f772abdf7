"""A wall-clock-free fence around SHP's host cost.

SHP used to pay one NumPy round-trip per node of the bisection tree (511
nodes for 10 000 vectors, most of them a few dozen vertices), so the
regression that matters is "Python-level calls grow with the number of tree
nodes again" rather than with ``depth × iterations``.  ``sys.setprofile``
``call`` events over one seeded ``partition`` count that exactly: a pure
function of the code and the seed (no timing), as in
``tests/test_cluster_call_budget.py``.  The headroom absorbs the small drift
between Python/NumPy versions.
"""

from repro.partitioning import SHPPartitioner
from repro.scenarios import ScenarioConfig, generate_scenario_trace
from repro.workloads import SyntheticTraceGenerator, scaled_table_specs
from tests.conftest import count_python_calls

#: Python-level calls for one ``partition``.  Measured 3 731 for the table
#: (10 000 vectors, 600 queries, 16 iterations) and 1 827 for the drift window
#: (4 096 vectors, 400 queries, 8 iterations) on CPython 3.11 / NumPy 2.4,
#: against 20 667 and 16 823 at the parent commit, where every tree node was
#: bisected and split on its own.  Each budget sits ~25 % above the former and
#: far below the latter.
TABLE1_CALLS_BUDGET = 4_700
DRIFT_WINDOW_CALLS_BUDGET = 2_300


def partition_calls(partitioner, num_vectors, trace):
    partitioner.partition(num_vectors, trace=trace)  # uncounted: NumPy's first-use set-up
    result, calls = count_python_calls(
        lambda: partitioner.partition(num_vectors, trace=trace)
    )
    assert result.details["num_training_queries"] == len(trace)
    return calls


def test_table1_partition_calls_stay_within_budget():
    spec = scaled_table_specs(1 / 1000, names=["table1"])["table1"]
    assert spec.num_vectors == 10_000
    trace = SyntheticTraceGenerator(spec, seed=3).generate(600)
    partitioner = SHPPartitioner(vectors_per_block=32, num_iterations=16, seed=3)
    calls = partition_calls(partitioner, spec.num_vectors, trace)
    assert calls < TABLE1_CALLS_BUDGET, (
        f"{calls} Python calls for one 10 000-vector partition "
        f"(budget {TABLE1_CALLS_BUDGET})"
    )


def test_drift_window_partition_calls_stay_within_budget():
    trace = generate_scenario_trace(
        ScenarioConfig(kind="drift", num_queries=400, num_vectors=4096, seed=3)
    )
    partitioner = SHPPartitioner(vectors_per_block=32, num_iterations=8, seed=3)
    calls = partition_calls(partitioner, 4096, trace)
    assert calls < DRIFT_WINDOW_CALLS_BUDGET, (
        f"{calls} Python calls for one 4 096-vector re-partition "
        f"(budget {DRIFT_WINDOW_CALLS_BUDGET})"
    )
