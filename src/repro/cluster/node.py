"""One simulated store node: shard engines, a device bank, admission control.

A :class:`ClusterNode` owns the *node half* of the spec/state split
(:mod:`repro.core.tablespec`): for every table it serves, a
:class:`~repro.caching.engine.BatchReplayEngine` with its own DRAM cache
(sized to the node's owned share of the table's budget), its own policy
instance and its own :class:`~repro.caching.replay.ReplayStats` — the node's
tally of lookups, block reads and NVM read time.  Replica caches are fully
independent — each replica's cache contents reflect exactly the
traffic *that replica* served, so retries and hedges landing on a secondary
warm the secondary, not the primary.

Time is simulated and owned by the shared device layer: the node holds a
one-device :class:`~repro.device.NVMDeviceBank` — the node as a single FIFO
resource, exactly the old hand-rolled ``busy_until_us`` clock — with every
served table pinned to it.  A shard read arriving at ``t`` waits out the
device's backlog, then runs for ``(NODE_OVERHEAD_US + NVM read time) ×
slow-multiplier`` —
the *externally-priced* path: the engines price the reads, the bank
serialises them.  **Admission control** is queue-level: when the backlog a
new read would have to wait behind exceeds ``admission_queue_slack ×`` the
table's SLO, the node sheds the read immediately (a fast rejection the
router can retry on another replica) instead of queueing it unboundedly —
overload degrades, it does not melt.

A crashed node loses its DRAM on recovery: :meth:`ClusterNode.cold_restart`
rebuilds every engine cold (fresh cache, fresh policy state) while keeping
the cumulative stats objects, so availability and block-read accounting span
the crash — and re-anchors the device bank at the restart time
(:meth:`~repro.device.NVMDeviceBank.rebase`), the same single definition of
restart semantics warm-up rebase uses.

The :class:`ShardServiceResult` split — ``queue_wait_us`` (FIFO backlog on
this node's device) vs ``service_us`` (overhead + NVM read time, stretched
by any slow-node multiplier) — is what the router records as the
``node.queue``/``node.service`` spans of a traced attempt
(:mod:`repro.tracing`), and what the circuit breaker judges slowness by
(service only; backlog is overload, not brokenness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.caching.engine import BatchReplayEngine
from repro.core.tablespec import TableServingSpec
from repro.device.bank import NVMDeviceBank

#: Fixed per-shard-read service time on the owning node (request parsing,
#: cache probing), before any NVM reads.
NODE_OVERHEAD_US = 5.0


@dataclass(frozen=True)
class ShardServiceResult:
    """What one executed shard read cost on the node."""

    queue_wait_us: float
    service_us: float

    @property
    def total_us(self) -> float:
        return self.queue_wait_us + self.service_us


class ClusterNode:
    """One simulated store node (see module docstring).

    Parameters
    ----------
    index:
        The node's cluster index.
    specs:
        Serving specs of the tables this node holds shards of.
    owned_blocks:
        Per-table count of blocks this node serves (over all replica slots
        it occupies); sizes the node's share of each table's cache budget.
    """

    def __init__(
        self,
        index: int,
        specs: Mapping[str, TableServingSpec],
        owned_blocks: Mapping[str, int],
    ) -> None:
        self.index = index
        self._specs: Dict[str, TableServingSpec] = {}
        self._cache_sizes: Dict[str, int] = {}
        self.engines: Dict[str, BatchReplayEngine] = {}
        for name, spec in specs.items():
            owned = int(owned_blocks.get(name, 0))
            if owned <= 0:
                continue
            self._specs[name] = spec
            self._cache_sizes[name] = spec.scaled_cache_size(owned)
            self.engines[name] = spec.make_engine(
                cache_size_vectors=self._cache_sizes[name]
            )
        #: The node's one physical device, every served table pinned to it.
        self.bank = NVMDeviceBank(num_devices=1, tables=self.engines.keys())
        self.cold_restarts = 0
        #: Simulated time up to which crash-recovery has been checked.
        self.last_seen_us = 0.0

    # ----------------------------------------------------------------- timing
    def queue_wait_us(self, at_us: float, table_name: Optional[str] = None) -> float:
        """Backlog a read arriving at ``at_us`` would wait behind.

        Per-table when given (that table's device — what admission control
        sheds against), else the worst backlog over the node's bank.
        """
        return self.bank.queue_wait_us(at_us, table_name)

    def rebase(self, now_us: float = 0.0) -> None:
        """Re-anchor the node's device clocks with empty backlogs."""
        self.bank.rebase(now_us)

    # ---------------------------------------------------------------- serving
    def serve(
        self,
        table_name: str,
        ids: np.ndarray,
        arrive_us: float,
        multiplier: float = 1.0,
        validated: bool = False,
    ) -> ShardServiceResult:
        """Execute one shard read arriving at ``arrive_us``.

        Replays the ids through the table's engine (updating cache, policy
        and stats exactly as single-store serving would), charges the
        resulting NVM read time plus the node overhead — stretched by the
        active slow-node ``multiplier`` — behind the table's device backlog,
        and advances that device's clock.  ``validated=True`` is the router
        vouching that it range-checked ``ids`` already (it does so once per
        request, before serving anything); direct callers get the engine's
        own check.
        """
        stats = self.engines[table_name].stats
        latency_before = stats.total_latency_us
        blocks_before = stats.misses
        self.engines[table_name].replay_query(ids, validate=not validated)
        device_us = stats.total_latency_us - latency_before
        blocks = stats.misses - blocks_before
        service_us = (NODE_OVERHEAD_US + device_us) * float(multiplier)
        record = self.bank.serve_duration(
            table_name, arrive_us, service_us, block_reads=blocks
        )
        return ShardServiceResult(
            queue_wait_us=record.queue_wait_us, service_us=service_us
        )

    def serves_table(self, table_name: str) -> bool:
        """Whether this node owns any shard of ``table_name``."""
        return table_name in self.engines

    # --------------------------------------------------------------- recovery
    def cold_restart(self, now_us: float) -> None:
        """Restart after a crash: cold caches, fresh policies, empty backlog.

        The cumulative stats objects are kept (availability and hit-rate
        accounting span the crash); everything else — cache contents,
        pending-prefetch state, policy state, queued work — is lost, exactly
        what a process restart costs.  Backlog loss is the device bank's
        :meth:`~repro.device.NVMDeviceBank.rebase`, defined once for every
        layer.
        """
        for name, spec in self._specs.items():
            self.engines[name] = spec.make_engine(
                cache_size_vectors=self._cache_sizes[name],
                stats=self.engines[name].stats,
            )
        self.rebase(now_us)
        self.cold_restarts += 1

    # ---------------------------------------------------------------- metrics
    def blocks_read(self) -> int:
        """NVM blocks read by this node so far (its share of cluster load).

        Counted off the stats, which survive a cold restart.
        """
        return sum(engine.stats.misses for engine in self.engines.values())

    def cache_sizes(self) -> Dict[str, int]:
        """The node's per-table cache budgets (vectors)."""
        return dict(self._cache_sizes)
