"""A wall-clock-free fence around the scenario runner's serve loop.

``run_workload_scenario`` serves every evaluation query through
``BandanaStore.lookup`` one query at a time, so its host cost is "Python
calls per query" times the query count.  ``sys.setprofile`` ``call`` events
over one seeded stale drift replay count that exactly: a pure function of the
code and the seed (no timing), as in ``tests/test_engine_call_budget.py``.
The offline build is left out (the runner is handed a store built before
counting starts); SHP and the hit-rate curves have fences of their own.
"""

from types import SimpleNamespace

import repro.scenarios.runner as runner
from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig
from repro.scenarios import ScenarioConfig, generate_scenario_trace, run_workload_scenario
from repro.workloads.trace import ModelTrace
from tests.conftest import count_python_calls

#: Python-level calls per evaluation query of the stale drift replay below
#: (2 400 queries, 4 096 vectors, a third trains).  Measured 7.43 on CPython
#: 3.11 / NumPy 2.4 (7.50 when NumPy's first-use set-up falls in the count):
#: ``lookup`` with its one table check, its id checks and one
#: ``replay_query`` per query, plus the admission calls of each block read.
#: The budget sits ~5 % above that and below the 8.43 one more frame per
#: ``lookup`` gives.
CALLS_PER_QUERY_BUDGET = 7.8

TRAIN_FRACTION = 1.0 / 3.0


def test_stale_drift_serve_loop_calls_per_query_stay_within_budget(monkeypatch):
    num_queries, num_vectors = 2400, 4096
    trace = generate_scenario_trace(
        ScenarioConfig(
            kind="drift",
            num_queries=num_queries,
            num_vectors=num_vectors,
            drift_epoch_queries=num_queries // 24,
            drift_start_fraction=TRAIN_FRACTION,
            drift_rotation_per_epoch=0.05,
            seed=7,
        )
    )
    config = BandanaConfig(
        total_cache_vectors=num_vectors // 8, tune_thresholds=False, default_threshold=2
    )
    train, _ = trace.split(TRAIN_FRACTION)
    store = BandanaStore.build(ModelTrace({"scenario": train}), config)
    monkeypatch.setattr(runner, "BandanaStore", SimpleNamespace(build=lambda *_: store))

    report, calls = count_python_calls(
        lambda: run_workload_scenario(
            trace, config=config, train_fraction=TRAIN_FRACTION, window_queries=100
        )
    )
    assert report.num_eval_queries == 1600 and 0.2 < report.overall_hit_rate < 0.3
    per_query = calls / report.num_eval_queries
    assert per_query < CALLS_PER_QUERY_BUDGET, (
        f"{per_query:.2f} Python calls per evaluation query "
        f"(budget {CALLS_PER_QUERY_BUDGET})"
    )
