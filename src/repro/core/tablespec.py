"""The cluster-owned half of a table: its serving *specification*.

Historically :class:`~repro.core.bandana.BandanaTableState` fused two things:

* the **table spec** — placement layout, admission policy, cache budget,
  geometry — which describes *what* serving a table means, and
* the **node-owned serving state** — the DRAM cache, the counters and the
  replay engine bound to them — which describes *where* that serving runs.

A single-host store never needs the distinction, but a cluster does: the
spec is global (every replica of every shard serves the same table the same
way) while caches and counters exist once per node.  :class:`TableServingSpec`
is the extracted spec; it can mint any number of independent, cold serving
engines (:meth:`TableServingSpec.make_engine`), each with its own policy
instance, cache and stats, all bit-identical in behaviour to the engine a
:class:`~repro.core.bandana.BandanaStore` would build for the same table.
:mod:`repro.cluster` instantiates one per replica; the single-host store
keeps working on its fused state and merely *exports* specs via
:meth:`~repro.core.bandana.BandanaStore.table_specs`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Annotated, Optional

import numpy as np

from repro.caching.engine import BatchReplayEngine
from repro.caching.policies import PrefetchPolicy
from repro.caching.replay import ReplayStats
from repro.nvm.block import BlockLayout
from repro.nvm.latency import NVMLatencyModel
from repro.utils.validation import AtLeast, NonEmpty, check_int_at_least, validate_fields


@dataclass(frozen=True)
class TableServingSpec:
    """Everything needed to serve one table, minus the node-owned state.

    Attributes
    ----------
    name:
        Table name.
    layout:
        Physical placement of the table's vectors into NVM blocks (shared by
        every replica — placement is a property of the table, not the node).
    policy_prototype:
        The prefetch-admission policy *as configured*.  Each call to
        :meth:`make_policy` deep-copies and resets it, so replicas never
        share mutable policy state (shadow caches, access counters).
    cache_size_vectors:
        DRAM cache budget for serving the whole table on one node.  Cluster
        callers scale this by each node's owned share of the table.
    vector_bytes:
        Bytes per embedding vector.
    """

    name: Annotated[str, NonEmpty]
    layout: BlockLayout
    policy_prototype: PrefetchPolicy
    cache_size_vectors: Annotated[int, AtLeast(0)]
    vector_bytes: Annotated[int, AtLeast(1)] = 128

    def __post_init__(self) -> None:
        validate_fields(self)

    # ------------------------------------------------------------------ build
    @property
    def stats_block_bytes(self) -> int:
        """Block size used for stats geometry (layout block × vector bytes)."""
        return self.layout.vectors_per_block * self.vector_bytes

    def make_policy(self) -> PrefetchPolicy:
        """A fresh, independent policy instance in its reset state."""
        policy = copy.deepcopy(self.policy_prototype)
        policy.reset()
        return policy

    def make_stats(self) -> ReplayStats:
        """A zeroed stats object with the table's geometry."""
        return ReplayStats(
            vector_bytes=self.vector_bytes, block_bytes=self.stats_block_bytes
        )

    def make_engine(
        self,
        cache_size_vectors: Optional[int] = None,
        stats: Optional[ReplayStats] = None,
    ) -> BatchReplayEngine:
        """A cold serving engine for this table.

        ``cache_size_vectors`` overrides the spec's budget (cluster nodes
        pass their owned share); ``stats`` lets a crash-recovering node keep
        accumulating its historical counters into a rebuilt, cold engine.
        """
        if cache_size_vectors is None:
            cache_size_vectors = self.cache_size_vectors
        else:
            check_int_at_least(cache_size_vectors, 0, "cache_size_vectors")
        return BatchReplayEngine(
            self.layout,
            self.make_policy(),
            cache_size=cache_size_vectors,
            vector_bytes=self.vector_bytes,
            device=NVMLatencyModel(block_bytes=self.stats_block_bytes),
            stats=stats if stats is not None else self.make_stats(),
        )

    def scaled_cache_size(self, owned_blocks: int) -> int:
        """Cache budget for a node owning ``owned_blocks`` of the table.

        Proportional to the owned share of blocks, rounded half-up, so a
        node owning the whole table gets exactly ``cache_size_vectors`` (the
        single-node equivalence case) and shares across nodes sum to within
        rounding of one full budget per replica.
        """
        check_int_at_least(owned_blocks, 0, "owned_blocks")
        num_blocks = self.layout.num_blocks
        if num_blocks == 0 or owned_blocks >= num_blocks:
            return self.cache_size_vectors
        return int(np.floor(self.cache_size_vectors * owned_blocks / num_blocks + 0.5))
