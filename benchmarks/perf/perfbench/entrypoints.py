"""Every ``repro.*`` entry point the benchmark calls or wraps, in one module.

The workloads reach the stack only through the names imported here
(``ep.simulate_serving(...)``), and the traced run patches only the
attributes listed in :data:`WRAP_POINTS`.  When a public function moves, this
is the one file a later benchmark issue has to re-point.

Module-level functions are looked up on this module at call time, so patching
``entrypoints.simulate_store`` is enough to wrap the benchmark's own calls;
functions the stack calls internally are patched where the caller looks them
up (``repro.core.bandana`` imports ``hit_rate_curve`` by name, so that module
attribute is the patch point).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import repro.core.bandana as _bandana_module
from repro.caching.engine import BatchReplayEngine, replay_table_cache_batched
from repro.caching.miniature import MiniatureCacheTuner
from repro.caching.policies import AccessThresholdPolicy
from repro.caching.replay import replay_table_cache
from repro.cluster import ClusterNode, ClusterStore, ConsistentHashRing, run_scenario
from repro.core.bandana import BandanaStore
from repro.core.config import (
    BandanaConfig,
    ClusterConfig,
    ServingConfig,
    TracingConfig,
)
from repro.device import DeviceClock
from repro.partitioning import SHPPartitioner
from repro.scenarios import (
    RepartitionConfig,
    RepartitionManager,
    ScenarioConfig,
    generate_scenario_trace,
    run_workload_scenario,
)
from repro.simulation import (
    simulate_serving,
    simulate_store,
    unlimited_cache_bandwidth_increase,
)
from repro.tracing import Tracer, validate_trace
from repro.workloads import (
    ModelTrace,
    SyntheticTraceGenerator,
    paper_shaped_lookups,
    scaled_table_specs,
)

__all__ = [
    "AccessThresholdPolicy",
    "BandanaConfig",
    "BandanaStore",
    "ClusterConfig",
    "ModelTrace",
    "RepartitionConfig",
    "ScenarioConfig",
    "ServingConfig",
    "SyntheticTraceGenerator",
    "Tracer",
    "TracingConfig",
    "WRAP_POINTS",
    "generate_scenario_trace",
    "paper_shaped_lookups",
    "replay_table_cache",
    "replay_table_cache_batched",
    "run_scenario",
    "run_workload_scenario",
    "scaled_table_specs",
    "simulate_serving",
    "simulate_store",
    "unlimited_cache_bandwidth_increase",
    "validate_trace",
]

Counters = Dict[str, float]
#: ``before(args) -> token`` runs just ahead of the wrapped call,
#: ``after(counters, token, args, result)`` just behind it; both outside the
#: span's own interval, so their cost lands in the parent's self time.
Probe = Tuple[Optional[Callable[[tuple], Any]], Callable[[Counters, Any, tuple, Any], None]]


class WrapPoint(NamedTuple):
    """One attribute the traced run replaces with a span-recording wrapper."""

    owner: Any
    attribute: str
    span: str
    probe: Optional[Probe] = None


# ------------------------------------------------------------------- probes
def _after_synth(counters: Counters, _token: Any, _args: tuple, trace: Any) -> None:
    counters["workloads.synth_lookups"] += trace.num_lookups


def _after_shp(counters: Counters, _token: Any, args: tuple, _result: Any) -> None:
    counters["partitioning.shp_vectors"] += int(args[1])


def _after_tune(counters: Counters, _token: Any, args: tuple, _result: Any) -> None:
    counters["caching.miniature_candidates"] += len(args[0].thresholds)


#: ``ReplayStats`` field -> the counter its growth over one replay call feeds.
_REPLAY_FIELDS = {
    "lookups": "caching.engine.lookups",
    "hits": "caching.engine.hits",
    "misses": "caching.engine.block_reads",
    "prefetch_admitted": "caching.engine.prefetch_admitted",
    "prefetch_hits": "caching.engine.prefetch_hits",
    "evictions": "caching.engine.evictions",
}


def _before_replay(args: tuple) -> Tuple[Dict[str, int], float]:
    stats = args[0].stats
    return {field: getattr(stats, field) for field in _REPLAY_FIELDS}, stats.total_latency_us


def _after_replay(
    counters: Counters, token: Tuple[Dict[str, int], float], args: tuple, _result: Any
) -> None:
    engine = args[0]
    before, latency_before_us = token
    for field, counter in _REPLAY_FIELDS.items():
        counters[counter] += getattr(engine.stats, field) - before[field]
    if engine.device is not None:
        counters["nvm.block_reads"] += engine.stats.misses - before["misses"]
        counters["nvm.read_latency_sim_us"] += (
            engine.stats.total_latency_us - latency_before_us
        )


def _after_device(counters: Counters, _token: Any, _args: tuple, record: Any) -> None:
    counters["device.serve_calls"] += 1
    counters["device.busy_sim_us"] += record.service_us
    counters["device.queue_wait_sim_us"] += record.queue_wait_us
    counters["device.queue_depth"] += record.queue_depth


def _after_rebase(counters: Counters, _token: Any, _args: tuple, _result: Any) -> None:
    # A cluster run rebases its clocks after the warm-up replay; the device
    # sums restart with them so busy time is compared with the measured wall.
    for name in [key for key in counters if key.startswith("device.")]:
        del counters[name]


_THIS = sys.modules[__name__]

WRAP_POINTS: List[WrapPoint] = [
    WrapPoint(SyntheticTraceGenerator, "generate_lookups", "workloads.synth", (None, _after_synth)),
    WrapPoint(_THIS, "generate_scenario_trace", "scenarios.generate"),
    WrapPoint(_THIS, "run_workload_scenario", "scenarios.runner"),
    WrapPoint(RepartitionManager, "observe", "scenarios.observe"),
    WrapPoint(BandanaStore, "swap_layout", "scenarios.swap_layout"),
    WrapPoint(SHPPartitioner, "partition", "partitioning.shp", (None, _after_shp)),
    WrapPoint(_bandana_module, "hit_rate_curve", "caching.hit_rate_curve"),
    WrapPoint(_bandana_module, "allocate_dram_budget", "caching.allocation"),
    WrapPoint(MiniatureCacheTuner, "select_threshold", "caching.miniature_tune", (None, _after_tune)),
    WrapPoint(BatchReplayEngine, "replay_query", "caching.engine.replay", (_before_replay, _after_replay)),
    WrapPoint(BandanaStore, "build", "core.build"),
    WrapPoint(BandanaStore, "lookup", "core.store"),
    WrapPoint(BandanaStore, "lookup_batch", "core.store"),
    WrapPoint(BandanaStore, "lookup_request", "core.store"),
    WrapPoint(_THIS, "simulate_store", "simulation.simulate_store"),
    WrapPoint(_THIS, "unlimited_cache_bandwidth_increase", "simulation.unlimited"),
    WrapPoint(DeviceClock, "serve_blocks", "device.serve", (None, _after_device)),
    WrapPoint(DeviceClock, "serve_duration", "device.serve", (None, _after_device)),
    WrapPoint(_THIS, "simulate_serving", "serving.frontend"),
    WrapPoint(ClusterStore, "from_store", "cluster.build"),
    WrapPoint(ClusterStore, "rebase_clocks", "cluster.rebase", (None, _after_rebase)),
    WrapPoint(ConsistentHashRing, "block_owners", "cluster.ring_block_owners"),
    WrapPoint(ClusterStore, "serve_request", "cluster.serve_request"),
    WrapPoint(ClusterNode, "serve", "cluster.node_serve"),
    WrapPoint(_THIS, "run_scenario", "cluster.run_scenario"),
]
