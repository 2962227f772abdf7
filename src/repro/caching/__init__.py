"""The DRAM cache stack (the paper's Section 4.3).

Bandana keeps a small per-table LRU cache in DRAM in front of the NVM device.
The interesting policy question is what to do with the 31 *other* vectors that
arrive with every 4 KB block read.  This package implements every variant the
paper examines:

* :class:`LRUCache` — an LRU queue supporting insertion at an arbitrary
  position (needed for Figure 11a/11c),
* :class:`ShadowCache` — an id-only LRU used as an admission filter
  (Figure 11b),
* :mod:`repro.caching.policies` — the prefetch-admission policies
  (cache-all, insert-at-position, shadow admission, combined, and the
  access-threshold policy Bandana adopts),
* :mod:`repro.caching.replay` — the per-table cache replay engine used by all
  cache experiments,
* :mod:`repro.caching.engine` — the *batch* replay engine: an ordered-map
  LRU walked at O(1) per demand miss (a residency bitmap with vectorised hit
  runs when the cache can never evict) that reproduces the reference loop's
  counters bit for bit at a multiple of its throughput,
* :mod:`repro.caching.stack_distance` — Mattson stack distances, counted in
  O(N log N) array passes without replaying a cache, and the hit-rate curves
  they give every cache size at once (Figure 3),
* :mod:`repro.caching.miniature` — miniature-cache simulation for picking the
  admission threshold per table and cache size (Table 2, Figure 14),
* :mod:`repro.caching.allocation` — splitting a DRAM budget across tables
  from their stack-distance hit-rate curves.

Reference vs. fast path
-----------------------
The package deliberately keeps two implementations of the replay semantics.
:func:`replay_table_cache` (and the dict+heap :class:`LRUCache` under it) is
the *reference model*: a readable, per-vector transcription of the paper used
to define what every counter means.  :func:`replay_table_cache_batched` (and
the :class:`~repro.caching.engine.BatchReplayEngine` under it) is the *fast
path* used by serving, tuning and simulation.  The contract — enforced by the equivalence
test suite — is that both produce bit-identical
:class:`~repro.caching.replay.ReplayStats` for any trace, policy and cache
size, so performance work can never silently change the modeled numbers.
"""

from repro.caching.lru import LRUCache
from repro.caching.shadow import ShadowCache
from repro.caching.policies import (
    PrefetchPolicy,
    NoPrefetchPolicy,
    CacheAllBlockPolicy,
    InsertAtPositionPolicy,
    ShadowAdmissionPolicy,
    CombinedPolicy,
    AccessThresholdPolicy,
    make_policy,
)
from repro.caching.replay import ReplayStats, replay_table_cache
from repro.caching.engine import (
    BatchReplayEngine,
    replay_table_cache_batched,
    replay_table_cache_multi,
)
from repro.caching.stack_distance import (
    HitRateCurve,
    compute_stack_distances,
    hit_rate_curve,
)
from repro.caching.miniature import MiniatureCacheTuner, ThresholdSelection
from repro.caching.allocation import allocate_dram_budget

__all__ = [
    "LRUCache",
    "ShadowCache",
    "PrefetchPolicy",
    "NoPrefetchPolicy",
    "CacheAllBlockPolicy",
    "InsertAtPositionPolicy",
    "ShadowAdmissionPolicy",
    "CombinedPolicy",
    "AccessThresholdPolicy",
    "make_policy",
    "ReplayStats",
    "replay_table_cache",
    "BatchReplayEngine",
    "replay_table_cache_batched",
    "replay_table_cache_multi",
    "HitRateCurve",
    "compute_stack_distances",
    "hit_rate_curve",
    "MiniatureCacheTuner",
    "ThresholdSelection",
    "allocate_dram_budget",
]
