"""One simulated store node: a shard store, a device bank, admission control.

A :class:`ClusterNode` serves a shard of the host's
:class:`~repro.core.bandana.BandanaStore` — :meth:`BandanaStore.shard
<repro.core.bandana.BandanaStore.shard>`, a cold store over the tables the
node owns blocks of: the host's layouts (shared, never copied), a reset
copy of each policy, each table's cache budget scaled to the node's owned
share of its blocks, and its own :class:`~repro.caching.replay.ReplayStats`
— the node's tally of lookups, block reads and NVM read time.  The shard
store builds the engines (:meth:`~repro.core.bandana.BandanaStore.engine`);
the node keeps them in ``engines`` for the read path.  Replica caches are
fully independent — each replica's cache contents reflect exactly the
traffic *that replica* served, so retries and hedges landing on a secondary
warm the secondary, not the primary.

Time is simulated and owned by the shared device layer: the node holds an
:class:`~repro.device.bank.NVMDeviceBank` of ``devices_per_host`` devices (the
run's :class:`~repro.core.config.ServingConfig`, as on a host), its served
tables pinned to them round-robin, each device a single FIFO resource.  A
shard read arriving at ``t`` waits out its table's device backlog, then runs
for ``(NODE_OVERHEAD_US + NVM read time) × slow-multiplier`` — the
*externally-priced* path: the engines price the reads, the bank serialises
them.  **Admission control** is the host's knob, applied by the router
(:class:`~repro.cluster.store.ClusterStore`) on ``node.bank``: when the
backlog a new read would wait behind exceeds
``ServingConfig.admission_queue_slack ×`` the table's SLO, the node sheds
the read immediately (a fast rejection the router can retry on another
replica) instead of queueing it unboundedly — overload degrades, it does
not melt.  Shedding is off when the slack is ``None``, as on a host.

A crashed node loses its DRAM on recovery: :meth:`ClusterNode.cold_restart`
is the shard store's :meth:`~repro.core.bandana.BandanaStore.cold_restart`
(policies reset, engines rebuilt cold, cumulative stats kept, so
availability and block-read accounting span the crash) plus the device
bank's :meth:`~repro.device.bank.NVMDeviceBank.rebase` at the restart time,
the same single definition of restart semantics warm-up rebase uses.

A shard read is one engine replay and one
:meth:`~repro.device.clock.DeviceClock.serve_duration` on the table's device
(looked up once, at construction), returning a :class:`ShardServiceResult`
tuple.  Its split — ``queue_wait_us`` (FIFO backlog on this node's device)
vs ``service_us`` (overhead + NVM read time, stretched by any slow-node
multiplier) — is what the router records as the
``node.queue``/``node.service`` spans of a traced attempt
(:mod:`repro.tracing`), and what the circuit breaker judges slowness by
(service only; backlog is overload, not brokenness).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.bandana import BandanaStore
from repro.device.bank import NVMDeviceBank

#: Fixed per-shard-read service time on the owning node (request parsing,
#: cache probing), before any NVM reads.
NODE_OVERHEAD_US = 5.0


class ShardServiceResult(NamedTuple):
    """What one executed shard read cost on the node."""

    queue_wait_us: float
    service_us: float


class ClusterNode:
    """One simulated store node (see module docstring).

    Parameters
    ----------
    index:
        The node's cluster index.
    store:
        The node's shard store (:meth:`~repro.core.bandana.BandanaStore.shard`).
    num_devices:
        Devices in the node's bank (``ServingConfig.devices_per_host``).
    """

    def __init__(self, index: int, store: BandanaStore, num_devices: int) -> None:
        self.index = index
        self.store = store
        #: Each served table's engine, built by the shard store.
        self.engines = {name: store.engine(name) for name in store.tables}
        #: The node's devices, its served tables pinned to them round-robin.
        self.bank = NVMDeviceBank(num_devices, tables=self.engines.keys())
        #: Each served table's device, resolved once for the per-read charge.
        self._devices = {name: self.bank.device_of(name) for name in self.engines}
        #: Simulated time up to which crash-recovery has been checked.
        self.last_seen_us = 0.0

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
        vouching that it checked ``ids`` already (it does so once per
        request, before serving anything); direct callers get the engine's
        own check.
        """
        engine = self.engines[table_name]
        stats = engine.stats
        latency_before = stats.total_latency_us
        blocks_before = stats.misses
        engine.replay_query(ids, validate=not validated)
        device_us = stats.total_latency_us - latency_before
        blocks = stats.misses - blocks_before
        service_us = (NODE_OVERHEAD_US + device_us) * float(multiplier)
        record = self._devices[table_name].serve_duration(arrive_us, service_us, blocks)
        return ShardServiceResult(record.start_us - arrive_us, service_us)

    # --------------------------------------------------------------- recovery
    def cold_restart(self, now_us: float) -> None:
        """Restart after a crash: cold caches, reset policies, empty backlog.

        The shard store's :meth:`~repro.core.bandana.BandanaStore.cold_restart`
        (the cumulative stats survive) plus the bank's
        :meth:`~repro.device.bank.NVMDeviceBank.rebase` at ``now_us`` —
        everything a process restart loses, and nothing more.
        """
        self.store.cold_restart()
        self.engines = {name: self.store.engine(name) for name in self.store.tables}
        self.bank.rebase(now_us)

    # ---------------------------------------------------------------- metrics
    def blocks_read(self) -> int:
        """NVM blocks read by this node so far (its share of cluster load).

        Counted off the stats, which survive a cold restart.
        """
        return sum(engine.stats.misses for engine in self.engines.values())
