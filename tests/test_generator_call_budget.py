"""A wall-clock-free fence around trace synthesis's host cost.

Synthesis is a per-query Python loop of random draws followed by one NumPy
pass per traffic window (Table 1 generator) or per batch of pending queries
(scenario generators), so the regression that matters is "more
interpreter-level calls per query" — most of all per-query work that belongs
in the resolve pass (a law searched, or a query de-duplicated, one query at a
time), or a law re-validated on every draw, which is what
``Generator.choice(p=)`` did.  ``sys.setprofile`` ``call`` events over one
seeded generation, divided by the queries it made, count that exactly: a pure
function of the code and the seed (no timing), as in
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

#: Python-level calls per generated query.  Measured 4.9 for the Table 1
#: generator (its construction included; CPython 3.11.7, NumPy 2.4.6), against
#: 20.5 when each query was de-duplicated and its ids inverted on its own
#: (and 55.2 before that, when every draw went through
#: ``Generator.choice(p=)``).  About 2 of the 4.9 are NumPy's own Python
#: ``np.prod`` inside ``integers(..., size=k)``, once per query with several
#: topics.  4.15 for the drift scenario, against 17.2 when each query's laws
#: were searched and its ids de-duplicated on their own (33.2 with
#: ``choice``); 4 of the 4.15 are the same ``np.prod``, once per query.
#: 9.6 for flash-crowd (19.7 one query at a time): its in-flash queries are
#: still resolved, diverted and de-duplicated one by one.  The budgets were
#: set ~25 % above the values measured before both generators shared one
#: resolver (5.2 / 4.1 / 9.0), and are kept.
TABLE1_CALLS_PER_QUERY_BUDGET = 6.6
DRIFT_CALLS_PER_QUERY_BUDGET = 5.2
FLASH_CROWD_CALLS_PER_QUERY_BUDGET = 11.2


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
