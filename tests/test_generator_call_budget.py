"""A wall-clock-free fence around trace synthesis's host cost.

Both generators draw every query's random numbers in array passes
(counter-based draws) and resolve them per pass.  So the regression that
matters is "more interpreter-level calls per query" — most of all per-query
work that belongs in an array pass (a law searched, or a query
de-duplicated, one query at a time), or a law re-validated on every draw,
which is what ``Generator.choice(p=)`` did.  ``sys.setprofile`` ``call``
events over one seeded generation, divided by the queries it made, count
that exactly: a pure function of the code and the seed (no timing), as in
``tests/test_cluster_call_budget.py``.  The headroom absorbs the small drift
between Python/NumPy versions.
"""

from repro.scenarios import ScenarioConfig, generate_scenario_trace
from repro.workloads import (
    SyntheticTraceGenerator,
    paper_shaped_lookups,
    scaled_table_specs,
)
from tests.conftest import count_python_calls

#: Python-level calls per generated query (CPython 3.11.7, NumPy 2.4.6).
#: Nothing is left per query in any of them: what remains is per trace or
#: call, per traffic window and per resolve pass, so any call made once per
#: query fails these fences.  Measured:
#:
#: - Table 1 generator (its construction included): 0.64, against 3.25 when
#:   a per-query loop drew through NumPy's ``Generator`` (4.1 and 4.9
#:   before it); 0.34 of the 0.64 is construction (its rotation
#:   calibration's ~16 bisection steps among it).  Budget ~25 % above.
#: - Drift: 0.16 (49 calls for 300 queries), as with the per-query
#:   ``Generator`` loop's float32 member draws (0.16; 4.15 through
#:   ``integers``).  Budget ~15 % above.
#: - Flash-crowd: 0.26, against 4.8 when the flash window's queries were
#:   drawn, resolved, diverted and de-duplicated one by one (9.6 before).
#:   Budget ~15 % above.
#:
#: The last budgets were 0.8, 0.2 and 6.2.
TABLE1_CALLS_PER_QUERY_BUDGET = 0.8
DRIFT_CALLS_PER_QUERY_BUDGET = 0.19
FLASH_CROWD_CALLS_PER_QUERY_BUDGET = 0.3


def assert_within_budget(calls, trace, budget):
    per_query = calls / len(trace)
    assert per_query < budget, (
        f"{calls} Python calls for {len(trace)} queries = "
        f"{per_query:.1f} per query (budget {budget})"
    )


def test_table1_calls_per_query_stay_within_budget():
    spec = scaled_table_specs(1 / 2000, names=["table1"])["table1"]
    lookups = paper_shaped_lookups(spec)

    def synthesize():
        generator = SyntheticTraceGenerator(spec, seed=7, expected_lookups=lookups)
        # Two windows: the per-window law tables are rebuilt inside the count.
        trace = generator.generate_lookups(2 * lookups)
        assert len(trace) > generator.window_queries
        return trace

    synthesize()  # uncounted: NumPy's first-use set-up happens here
    trace, calls = count_python_calls(synthesize)
    assert_within_budget(calls, trace, TABLE1_CALLS_PER_QUERY_BUDGET)


def assert_scenario_within_budget(kind, budget):
    config = ScenarioConfig(
        kind=kind, num_queries=300, num_vectors=2048, drift_epoch_queries=50, seed=7
    )
    generate_scenario_trace(config)  # uncounted, as above
    trace, calls = count_python_calls(lambda: generate_scenario_trace(config))
    assert len(trace) == config.num_queries
    assert_within_budget(calls, trace, budget)


def test_drift_calls_per_query_stay_within_budget():
    assert_scenario_within_budget("drift", DRIFT_CALLS_PER_QUERY_BUDGET)


def test_flash_crowd_calls_per_query_stay_within_budget():
    assert_scenario_within_budget("flash-crowd", FLASH_CROWD_CALLS_PER_QUERY_BUDGET)
