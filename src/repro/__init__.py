"""Reproduction of *Bandana: Using Non-volatile Memory for Storing Deep Learning Models*.

Bandana (Eisenman et al., MLSYS 2019) stores recommendation-model embedding
tables on block-addressable NVM with a small DRAM cache.  Its two mechanisms —
locality-aware physical placement of embedding vectors into 4 KB blocks and
miniature-cache-tuned prefetch admission — are implemented here together with
every substrate they require (an NVM device model, embedding tables, synthetic
production-like traces, partitioners and the DRAM cache stack).

The most convenient entry points are:

``repro.BandanaStore``
    The end-to-end system: builds a placement, tunes per-table caches and
    serves lookups from the simulated NVM device.

``repro.workloads.SyntheticTraceGenerator``
    Generates access traces whose statistics match the paper's Table 1.

``repro.simulation.simulate_table``
    The per-table replay harness used by most of the paper's figures.

``repro.cluster.ClusterStore``
    The store promoted to a simulated multi-node cluster: consistent-hash
    sharding, R-way replication, fan-out/fan-in serving, and a
    fault-injection layer (crashes, slow nodes, lossy links) exercised by
    ``repro.cluster.run_scenario``.  See the ``repro.cluster`` package
    docstring for the scenario catalog and example configurations.

``repro.tracing``
    Per-request span tracing on the simulated clock: pass
    ``tracing=TracingConfig(enabled=True)`` to ``simulate_serving`` or
    ``run_scenario`` and every request's latency decomposes into named stage
    spans — batcher wait, device queue vs service, per-attempt
    retry/hedge/shed intervals — with critical-path and per-stage breakdown
    queries for tail debugging.

See ``ARCHITECTURE.md`` for the module map and the equivalence suites.
"""

from repro.core.bandana import BandanaStore, BandanaTableState
from repro.core.config import (
    BandanaConfig,
    ServingConfig,
    TableCacheConfig,
    TracingConfig,
)

__all__ = [
    "BandanaStore",
    "BandanaTableState",
    "BandanaConfig",
    "ServingConfig",
    "TableCacheConfig",
    "TracingConfig",
    "__version__",
]

__version__ = "0.1.0"
