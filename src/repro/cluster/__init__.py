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
* :mod:`repro.cluster.node` — one simulated node: a shard of the host's
  store (:meth:`~repro.core.bandana.BandanaStore.shard`: the host's layouts,
  independent policies and caches sized to the node's owned share), a bank
  of ``devices_per_host`` FIFO devices, and queue-level admission control
  against per-table SLOs, both by the run's
  :class:`~repro.core.config.ServingConfig`.
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
``make_scenario(name, num_nodes, **overrides)`` instantiates (the
overrides are the window, ``start_s`` and ``duration_s``, and the swept
severities below; any other key raises ``ValueError``):

========================  ====================================================
``"none"``                healthy cluster — the baseline row of every sweep
``"crash_recover"``       node 0 down for a window, then cold-restarts
``"slow_node"``           node 0 serves ``multiplier``× slower (default 20×)
``"flaky_link"``          node 0's link adds 200 µs and drops attempts
                          (``loss_prob``, default 5 %)
``"degraded_cluster"``    compound: node 0 crashes, node 1 slows 8×, node
                          2's link adds 100 µs and drops 2 %, all at once
========================  ====================================================

A fault on another node is an explicit
:class:`~repro.cluster.faults.FaultSchedule`, which ``run_scenario`` takes
in place of a name.

Example
-------
>>> from repro.cluster import run_scenario
>>> from repro.core.config import ClusterConfig
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

from repro.cluster.node import ClusterNode
from repro.cluster.ring import ConsistentHashRing
from repro.cluster.scenario import run_scenario
from repro.cluster.store import ClusterStore

__all__ = [
    "ClusterNode",
    "ClusterStore",
    "ConsistentHashRing",
    "run_scenario",
]
