"""A wall-clock-free fence around the cluster request path's host cost.

The cluster tier's host time is Python call overhead — ~30 shard groups per
request, a couple of ids each — so the regression that matters is "more
interpreter-level calls per shard group", and that is countable exactly:
``sys.setprofile`` ``call`` events over one seeded ``run_scenario``, divided
by the shard groups it served.  The count is a pure function of the code and
the seed (no timing), so the budget holds on any machine; it moves a little
between Python/NumPy versions (comprehension inlining, NumPy's Python-level
wrappers), which the headroom absorbs.
"""

import numpy as np

from repro.caching.policies import AccessThresholdPolicy
from repro.caching.replay import ReplayStats
from repro.cluster import run_scenario
from repro.core.bandana import BandanaStore, BandanaTableState
from repro.core.config import (
    BandanaConfig,
    ClusterConfig,
    ServingConfig,
    TableCacheConfig,
)
from repro.nvm.block import BlockLayout
from repro.workloads.trace import ModelTrace, Trace
from tests.conftest import count_python_calls

#: Python-level calls per shard group.  Measured 28.8 (CPython 3.11.7,
#: NumPy 2.4.6): a probe asks the fault schedule one question, a node charges
#: its table's device directly, the device and node results are named
#: tuples, a short query skips the engine's slice loop, and the id range
#: check is one ufunc reduction.  It was 42.6 before that, and 53.4 while a
#: demand miss still called into a per-table device object.  The budget
#: sits 25 % above the measured value.
CALLS_PER_SHARD_GROUP_BUDGET = 36.0

VECTORS_PER_BLOCK = 32


def serving_shaped_store(seed):
    """Four threshold-policy tables under skewed traffic (mostly DRAM hits)."""
    rng = np.random.default_rng(seed)
    config = BandanaConfig(
        total_cache_vectors=2048,
        tune_thresholds=False,
        vector_bytes=128,
        block_bytes=VECTORS_PER_BLOCK * 128,
    )
    tables, traces = {}, {}
    for index in range(4):
        name = f"table{index}"
        num_vectors = 2048
        layout = BlockLayout(
            rng.permutation(num_vectors).astype(np.int64), VECTORS_PER_BLOCK
        )
        counts = rng.integers(0, 30, size=num_vectors).astype(np.int64)
        queries = [
            np.minimum(rng.geometric(0.01, size=16), num_vectors).astype(np.int64) - 1
            for _ in range(80)
        ]
        tables[name] = BandanaTableState(
            name=name,
            layout=layout,
            policy=AccessThresholdPolicy(counts, 10),
            cache_config=TableCacheConfig(cache_size_vectors=512),
            access_counts=counts,
            stats=ReplayStats(
                vector_bytes=config.vector_bytes, block_bytes=config.block_bytes
            ),
        )
        traces[name] = Trace(queries, num_vectors=num_vectors)
    return BandanaStore(config, tables), ModelTrace(traces)


def test_calls_per_shard_group_stay_within_budget():
    store, trace = serving_shaped_store(5)
    requests = 60
    span_s = requests / 800.0

    def scenario():
        return run_scenario(
            store,
            trace,
            "degraded_cluster",
            cluster_config=ClusterConfig(
                num_nodes=4, replication=2, max_attempts=12, seed=5
            ),
            serving_config=ServingConfig(arrival_rate_rps=800.0, seed=5),
            num_requests=requests,
            warmup_requests=20,
            # The fault window covers the middle half of the measured run.
            scenario_overrides={"start_s": 0.25 * span_s, "duration_s": 0.5 * span_s},
        )

    scenario()  # uncounted: first-use imports and regex compiles happen here
    report, calls = count_python_calls(scenario)
    counters = report.counters
    assert counters.requests_total == requests
    # The run must exercise the whole policy path, not just the happy one.
    assert counters.retries and counters.hedges_launched and counters.timeouts
    per_group = calls / counters.shard_groups
    assert per_group < CALLS_PER_SHARD_GROUP_BUDGET, (
        f"{calls} Python calls for {counters.shard_groups} shard groups = "
        f"{per_group:.1f} per group (budget {CALLS_PER_SHARD_GROUP_BUDGET})"
    )
