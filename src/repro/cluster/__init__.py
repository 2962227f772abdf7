"""Simulated multi-node cluster store with fault injection.

The single-host :class:`~repro.core.bandana.BandanaStore` answers the
paper's caching and device questions; this package answers the deployment
one: what does Bandana-style NVM serving look like **across nodes**, and
what does it cost when nodes fail?

Architecture
------------
* :mod:`repro.cluster.ring` — consistent-hash ring with virtual nodes.
  Each table's dense id space is partitioned at NVM-**block** granularity
  (``(table, block)`` keys), so prefetch admission stays node-local and a
  1-node ring reduces exactly to the single store.
* :mod:`repro.cluster.node` — one simulated node: per-table
  :class:`~repro.caching.engine.BatchReplayEngine` replicas (independent
  caches sized to the node's owned share), a FIFO ``busy_until`` clock, and
  queue-level admission control against per-table SLOs.
* :mod:`repro.cluster.store` — the router: fan-out/fan-in (request latency
  is the max over touched shard groups), R-way read-one replication,
  per-shard timeouts with capped exponential-backoff retries, hedged reads
  after a running p99 delay, and per-node circuit breakers.
* :mod:`repro.cluster.faults` — the fault-injection layer: declarative
  schedules of node crashes (recovering **cold**), slow nodes and degraded
  links, plus the named scenario catalog.
* :mod:`repro.cluster.scenario` — :func:`run_scenario`, the entry point:
  open-loop arrivals through a fault-injected cluster, reported as a
  :class:`~repro.serving.report.ServingReport` with ``counters`` set.

Failure-scenario catalog
------------------------
``make_scenario(name, num_nodes, **overrides)`` instantiates (an override
no catalog scenario takes raises ``ValueError``):

========================  ====================================================
``"none"``                healthy cluster — the baseline row of every sweep
``"crash_recover"``       one node down for a window, then cold-restarts
``"slow_node"``           one node serves ``multiplier``× slower (default 20×)
``"flaky_link"``          one link adds delay and drops attempts
                          (default +200 µs, 5 % loss)
``"degraded_cluster"``    compound: a crash, a slow node and a flaky link
                          at once
========================  ====================================================

Example
-------
>>> from repro.cluster import run_scenario
>>> from repro.core import ClusterConfig
>>> cluster_config = ClusterConfig(num_nodes=4, replication=2)
>>> # store = BandanaStore.build(trace); trace as in simulate_store
>>> # report = run_scenario(store, trace, "crash_recover", cluster_config)
>>> # report.counters.availability, report.latency.p999_us

Equivalence anchor
------------------
With ``ClusterConfig(num_nodes=1, replication=1)`` and no faults, the
cluster replays a request stream **bit-identically** to the single-host
store: one shard group per table, no retries, no hedges, no shedding, the
same engine state transitions in the same order.
``tests/test_cluster_equivalence.py`` pins this, golden counters included.

Tracing
-------
Pass ``tracing=TracingConfig(enabled=True)`` to :func:`run_scenario` (or
attach a :class:`repro.tracing.Tracer` via
:meth:`~repro.cluster.store.ClusterStore.set_tracer`) and every measured
request records its full fan-out span tree — shard groups, per-attempt
timeout/link-loss/shed/breaker-skip intervals, retry backoffs, hedges (both
attempts of a hedge-won request) and per-node queue-vs-service splits — so
a fault scenario's p999 inflation can be attributed to failover machinery
rather than guessed at.  The summary lands in ``report.trace``; see
:mod:`repro.tracing` for the worked example.
"""

from repro.cluster.faults import (
    SCENARIOS,
    DegradedLink,
    FaultSchedule,
    NodeCrash,
    SlowNode,
    make_scenario,
)
from repro.cluster.node import ClusterNode, ShardServiceResult
from repro.cluster.ring import ConsistentHashRing, stable_hash64
from repro.cluster.scenario import run_scenario
from repro.cluster.store import ClusterCounters, ClusterStore, RequestOutcome

__all__ = [
    "SCENARIOS",
    "ClusterCounters",
    "ClusterNode",
    "ClusterStore",
    "ConsistentHashRing",
    "DegradedLink",
    "FaultSchedule",
    "NodeCrash",
    "RequestOutcome",
    "ShardServiceResult",
    "SlowNode",
    "make_scenario",
    "run_scenario",
    "stable_hash64",
]
