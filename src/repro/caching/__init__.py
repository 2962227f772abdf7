"""The DRAM cache stack (the paper's Section 4.3).

Bandana keeps a small per-table LRU cache in DRAM in front of the NVM device.
The interesting policy question is what to do with the 31 *other* vectors that
arrive with every 4 KB block read.  This package implements every variant the
paper examines:

* :mod:`repro.caching.lru` — :class:`~repro.caching.lru.LRUCache`, an LRU
  queue supporting insertion at an arbitrary position (needed for Figure
  11a/11c), and :class:`~repro.caching.lru.OrderedLRUCache`, the top-insert
  LRU that the batch engine and the shadow-admission filter (Figure 11b)
  keep,
* :mod:`repro.caching.policies` — the prefetch-admission policies
  (cache-all, insert-at-position, shadow admission, combined, and the
  access-threshold policy Bandana adopts),
* :mod:`repro.caching.replay` — the per-table cache replay engine used by all
  cache experiments,
* :mod:`repro.caching.engine` — the *batch* replay engine: an ordered-map
  LRU walked at O(1) per demand miss that reproduces the reference loop's
  counters bit for bit at a multiple of its throughput, for every policy that
  admits at the top of the queue,
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
:func:`~repro.caching.replay.replay_table_cache` (and the dict+heap
:class:`~repro.caching.lru.LRUCache` under it) is the *reference model*: a
readable, per-vector transcription of the paper used to define what every
counter means.  :func:`~repro.caching.engine.replay_table_cache_batched` (and
the :class:`~repro.caching.engine.BatchReplayEngine` under it) is the *fast
path* used by serving, tuning and simulation.  The contract — enforced by the
equivalence test suite — is that both produce bit-identical
:class:`~repro.caching.replay.ReplayStats` for any trace, top-only policy and
cache size, so performance work can never silently change the modeled
numbers.  Interpolated insert positions (Figure 11) have one implementation,
the reference loop.
"""

from repro.caching.stack_distance import hit_rate_curve
from repro.caching.miniature import MiniatureCacheTuner
from repro.caching.allocation import allocate_dram_budget

__all__ = [
    "hit_rate_curve",
    "MiniatureCacheTuner",
    "allocate_dram_budget",
]
