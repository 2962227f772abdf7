"""A wall-clock-free fence around the replay engine's host cost.

The engine's host time used to be (demand misses × ≈ 21 µs): an evicting miss
with admission went through ≈ 35 NumPy dispatches on ≤ 32-element arrays,
spread over ≈ 15 Python-level calls.  On a bounded cache a miss is now a few
``OrderedDict`` operations inside one loop, so the regressions that matter are
"a Python-level call per miss (or per hit) came back", and those are countable
exactly: ``sys.setprofile`` ``call`` events over a seeded replay, a pure
function of the code and the seed (no timing), as in
``tests/test_cluster_call_budget.py``.  C calls (``move_to_end``, a fancy
index) are not ``call`` events; the fence is about interpreter frames.
"""

import numpy as np

from repro.caching.engine import BatchReplayEngine
from repro.caching.policies import AccessThresholdPolicy
from repro.nvm.latency import NVMLatencyModel
from tests.conftest import count_python_calls, drift_replay_case, table1_replay_case

#: Python-level calls per demand miss of the drift replay.  Measured 0.72
#: (CPython 3.11, NumPy 2.4), all of it per ``replay_query`` call and per first
#: fetch of a block: a miss adds a read price computed once at construction,
#: so it costs no frame of its own.  It was 2.72 while every miss also called
#: a per-table device's read-charging method and its block check, and 14.5
#: before that, when every miss ran ``_process_miss`` → ``_evict_one`` /
#: ``stamp_top`` / ``peek_oldest`` / ``evict_peeked`` / ``stamp_bulk`` over the
#: stamp-log ``ArrayLRUCache``.
CALLS_PER_MISS_BUDGET = 1.5

#: Python-level calls per lookup of a 96 %-hit bounded stream in one call.
#: Measured 0.078 (0.38 at the parent commit), all of it the first fetch of
#: each block: a hit is no frame at all, and one method call per hit is 1.0.
CALLS_PER_LOOKUP_BUDGET = 0.15


def test_miss_heavy_replay_calls_per_demand_miss_stay_within_budget():
    """``drift-repartition``'s shape: one ``replay_query`` per query, a device."""
    layout, counts, queries = drift_replay_case()
    engine = BatchReplayEngine(
        layout,
        AccessThresholdPolicy(counts, 2),
        cache_size=512,
        device=NVMLatencyModel(),
    )

    def replay():
        for query in queries:
            engine.replay_query(query)

    _, calls = count_python_calls(replay)
    stats = engine.stats
    assert stats.misses > 2000 and stats.hit_rate < 0.5 and stats.evictions > stats.misses
    per_miss = calls / stats.misses
    assert per_miss < CALLS_PER_MISS_BUDGET, (
        f"{per_miss:.2f} Python calls per demand miss (budget {CALLS_PER_MISS_BUDGET})"
    )


def test_hit_heavy_bounded_replay_calls_per_lookup_stay_within_budget():
    """``serve-host``'s shape: a bounded cache that mostly hits, one stream."""
    layout, counts, queries = table1_replay_case()
    engine = BatchReplayEngine(
        layout, AccessThresholdPolicy(counts, 5), cache_size=layout.num_vectors // 10
    )
    stream = np.concatenate(queries)
    _, calls = count_python_calls(lambda: engine.replay_query(stream))
    stats = engine.stats
    assert stats.lookups == stream.size and stats.hit_rate >= 0.95 and stats.evictions > 0
    per_lookup = calls / stats.lookups
    assert per_lookup < CALLS_PER_LOOKUP_BUDGET, (
        f"{per_lookup:.3f} Python calls per lookup (budget {CALLS_PER_LOOKUP_BUDGET})"
    )
