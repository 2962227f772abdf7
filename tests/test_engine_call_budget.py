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
from repro.nvm.device import NVMDevice
from tests.conftest import count_python_calls, drift_replay_case, table1_replay_case

#: Python-level calls per demand miss of the drift replay.  Measured 2.72
#: (CPython 3.11, NumPy 2.4) — two of them are ``NVMDevice.charge_read`` and
#: its block check, the rest is per ``replay_query`` call and per first fetch
#: of a block — against 14.5 at the parent commit (19.0 on the issue's own
#: probe), where every miss ran ``_process_miss`` → ``_evict_one`` /
#: ``stamp_top`` / ``peek_oldest`` / ``evict_peeked`` / ``stamp_bulk`` over the
#: stamp-log ``ArrayLRUCache``.
CALLS_PER_MISS_BUDGET = 4.0

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
        device=NVMDevice(num_blocks=layout.num_blocks),
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
