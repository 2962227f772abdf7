"""Shared infrastructure for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper's evaluation as a
plain-text table: the same rows/series the paper plots, measured on the scaled
synthetic workload.  The output of each benchmark is printed and also written
to ``benchmarks/results/<name>.txt``, so the recorded numbers can be
re-derived at any time.

The workload bundle (traces, access counts, SHP layouts for all eight tables)
is built once per pytest session by the fixtures in ``conftest.py`` and shared
across benchmarks; the bundle uses a 1/1000 scale of the paper's tables so the
whole harness completes in a few minutes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.caching.allocation import allocation_chunk
from repro.caching.engine import replay_table_cache_multi
from repro.caching.policies import AccessThresholdPolicy, NoPrefetchPolicy
from repro.core.bandana import BandanaStore, tune, tuning_split
from repro.core.config import BandanaConfig
from repro.device import DEVICE_SLOTS
from repro.nvm.block import BlockLayout
from repro.nvm.latency import NVMLatencyModel
from repro.partitioning import SHPPartitioner
from repro.partitioning.base import Partitioner, PartitionResult
from repro.scenarios import TraceLoaderConfig, characterization_report, load_trace
from repro.simulation import simulate_store
from repro.workloads import (
    SyntheticTraceGenerator,
    paper_shaped_lookups,
    scaled_table_specs,
)
from repro.workloads.characterization import access_counts
from repro.workloads.tables_spec import TableSpec
from repro.workloads.trace import ModelTrace, Trace

#: Linear scale of the benchmark workload relative to the paper's tables.
BENCH_SCALE = 1.0 / 1000.0
#: Ratio of placement-training lookups to evaluation lookups (the paper trains
#: on 5 B requests and evaluates on 1 B; 3× keeps the harness fast).
TRAIN_EVAL_RATIO = 3.0
#: Vectors per 4 KB block for 128 B vectors.
VECTORS_PER_BLOCK = 32

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
SAMPLE_TRACES_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "data")


def save_result(name: str, text: str) -> None:
    """Print a benchmark's result table and persist it under ``results/``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


def timed_partition(
    partitioner: Partitioner, num_vectors: int, **inputs: Any
) -> Tuple[PartitionResult, float]:
    """Run ``partitioner.partition`` once; return its result and wall seconds.

    The partitioners are pure and keep no clock; the placement-cost columns
    of Figures 6-8 are this one stopwatch around the call.
    """
    start = time.perf_counter()
    result = partitioner.partition(num_vectors, **inputs)
    return result, time.perf_counter() - start


@dataclass
class TableWorkload:
    """Everything the benchmarks need for one embedding table."""

    spec: TableSpec
    generator: SyntheticTraceGenerator
    train: Trace
    evaluation: Trace
    access_counts: np.ndarray
    shp_layout: BlockLayout
    identity_layout: BlockLayout

    @property
    def eval_unique(self) -> int:
        """Distinct vectors touched by the evaluation trace (its working set)."""
        return int(self.evaluation.unique_vectors().size)


@dataclass
class WorkloadBundle:
    """The per-table workloads plus the scale metadata, shared across benchmarks."""

    scale: float
    tables: Dict[str, TableWorkload] = field(default_factory=dict)

    def __getitem__(self, name: str) -> TableWorkload:
        return self.tables[name]

    def names(self):
        return list(self.tables)


def build_table_workload(
    spec: TableSpec,
    seed: int,
    shp_iterations: int = 12,
    train_eval_ratio: float = TRAIN_EVAL_RATIO,
) -> TableWorkload:
    """Generate traces and train the SHP placement for one table."""
    eval_lookups = paper_shaped_lookups(spec, VECTORS_PER_BLOCK)
    generator = SyntheticTraceGenerator(spec, seed=seed, expected_lookups=eval_lookups)
    train = generator.generate_lookups(int(round(eval_lookups * train_eval_ratio)))
    evaluation = generator.generate_lookups(eval_lookups)
    counts = access_counts(train)
    shp = SHPPartitioner(
        vectors_per_block=VECTORS_PER_BLOCK, num_iterations=shp_iterations, seed=seed
    )
    shp_layout = shp.partition(spec.num_vectors, trace=train).layout(VECTORS_PER_BLOCK)
    identity_layout = BlockLayout.identity(spec.num_vectors, VECTORS_PER_BLOCK)
    return TableWorkload(
        spec=spec,
        generator=generator,
        train=train,
        evaluation=evaluation,
        access_counts=counts,
        shp_layout=shp_layout,
        identity_layout=identity_layout,
    )


def build_bundle(
    scale: float = BENCH_SCALE,
    names: Optional[list] = None,
    seed: int = 100,
) -> WorkloadBundle:
    """Build the shared workload bundle for the requested tables."""
    specs = scaled_table_specs(scale, names=names)
    bundle = WorkloadBundle(scale=scale)
    for index, (name, spec) in enumerate(specs.items()):
        bundle.tables[name] = build_table_workload(spec, seed=seed + index)
    return bundle


def cache_sizes_for(workload: TableWorkload, fractions=(0.15, 0.3, 0.45, 0.6)) -> list:
    """Cache sizes expressed as fractions of the table's evaluation working set.

    The paper sweeps absolute cache sizes (80–200 k vectors for a 10 M-vector
    table); at the benchmark scale the equivalent knob is the ratio of cache
    size to the evaluation working set, which is what actually determines the
    cache behaviour.
    """
    unique = workload.eval_unique
    return [max(32, int(round(unique * fraction))) for fraction in fractions]


def threshold_candidates(workload: TableWorkload) -> list:
    """Admission-threshold sweep adapted to the workload's access-count scale.

    The paper sweeps t ∈ {5, 10, 15, 20} against counts accumulated over 5 B
    training lookups.  The scaled training traces concentrate far more
    accesses on each touched vector, so the sweep uses percentiles of the
    non-zero access counts instead of the paper's absolute values.
    """
    touched = workload.access_counts[workload.access_counts > 0]
    if touched.size == 0:
        return [0.0, 1.0, 2.0, 4.0]
    percentiles = np.percentile(touched, [50, 75, 90, 95])
    thresholds = sorted({float(int(value)) for value in percentiles})
    return [0.0] + thresholds


def build_store(tables: List[str], eval_multiplier: int) -> Tuple[BandanaStore, ModelTrace]:
    """The serving benchmarks' store plus a steady-state evaluation trace.

    ``tables`` at :data:`BENCH_SCALE`, SHP-placed and untuned, with a DRAM
    cache of half the evaluation trace's working set; the trace is
    ``eval_multiplier`` standard evaluation lengths per table.
    """
    specs = scaled_table_specs(BENCH_SCALE, names=tables)
    workloads = {
        name: build_table_workload(spec, seed=100 + i, shp_iterations=8)
        for i, (name, spec) in enumerate(specs.items())
    }
    eval_trace = ModelTrace(
        {
            name: workload.generator.generate_lookups(
                eval_multiplier * workload.evaluation.num_lookups
            )
            for name, workload in workloads.items()
        }
    )
    working_set = sum(
        trace.unique_vectors().size for trace in eval_trace.tables.values()
    )
    train_trace = ModelTrace({name: w.train for name, w in workloads.items()})
    store = BandanaStore.build(
        train_trace,
        BandanaConfig(
            total_cache_vectors=max(1, working_set // 2),
            shp_iterations=8,
            tune_thresholds=False,
            seed=7,
        ),
    )
    return store, eval_trace


def pctl(latency: Dict[str, Any], field: str) -> str:
    """One formatted percentile, starred when its rank outruns the samples."""
    flag = "*" if field in latency.get("unsupported_percentiles", ()) else ""
    return f"{latency[field]:.0f}{flag}"


def sample_trace_reports() -> Dict[str, Any]:
    """The committed sample traces under ``tests/data/``, one per loader
    format, loader-normalised and set against the paper's Table 1."""
    reports = {}
    for fmt in ("twitter", "columnar"):
        path = os.path.join(SAMPLE_TRACES_DIR, f"sample_{fmt}_trace.csv")
        loaded = load_trace(TraceLoaderConfig(path=path, format=fmt))
        reports[fmt] = characterization_report(loaded, name=f"sample-{fmt}")
    return reports


def warm_store(store: BandanaStore, warm_trace: ModelTrace) -> None:
    """Cold-reset the store, then replay the warm-up prefix untimed."""
    simulate_store(store, warm_trace, include_baseline=False)


def saturation_rate_rps(
    store: BandanaStore, warm_trace: ModelTrace, serve_trace: ModelTrace
) -> float:
    """Arrival rate at which demand misses alone saturate one NVM device.

    An untimed warm replay followed by a replay of the serving portion
    measures the workload's steady blocks-per-request; the device's block
    rate with every submission slot busy (:data:`~repro.device.DEVICE_SLOTS`,
    the law the device clock runs) divided by that cost is the saturating
    arrival rate.
    """
    warm_store(store, warm_trace)
    before = store.aggregate_stats().misses
    simulate_store(store, serve_trace, include_baseline=False, reset_first=False)
    blocks = store.aggregate_stats().misses - before
    num_requests = max(len(trace) for trace in serve_trace.tables.values())
    blocks_per_request = blocks / num_requests
    model = NVMLatencyModel(block_bytes=store.config.block_bytes)
    return model.blocks_per_second(DEVICE_SLOTS) / blocks_per_request


@dataclass
class LossChain:
    """A built store's loss chain (:func:`loss_chain`)."""

    #: ``placement``, ``cache``, ``allocation`` and the tuning factors, in order.
    factors: Dict[str, float]
    #: Whether the store's split lies on the allocator's chunk grid, where
    #: P ≥ B ≥ A ≥ max(measured, C) holds.
    on_grid: bool
    #: Per table, the chain's own cold replay at the store's cache size and
    #: threshold: the store's measured block reads when the oracles replay
    #: what the store serves.
    replayed: Dict[str, int]
    #: Per table, the block reads :func:`~repro.simulation.simulate_store` measured.
    measured: Dict[str, int]


def loss_chain(
    store: BandanaStore, training_trace: ModelTrace, eval_trace: ModelTrace
) -> LossChain:
    """Where a built store's ``sim_bw_gain`` goes, as factors that multiply to it.

    Each term is a gain: ``baseline`` ÷ a count of cold block reads of
    ``eval_trace``, where ``baseline`` is always the no-prefetch replay at the
    store's split.  Each term swaps one build stage for an eval-trace oracle:

    * ``P`` = baseline ÷ the distinct blocks the eval trace touches (a cache
      reads each of them at least once);
    * ``B``: the best split on :func:`~repro.caching.allocation.allocate_dram_budget`'s
      own grid (chunks of :func:`~repro.caching.allocation.allocation_chunk`),
      found by a DP, each table at each size with its eval-best threshold
      (``inf``, no prefetch, included);
    * ``A``: the eval-best thresholds at the store's split;
    * ``C``: the thresholds a ``sampling_rate=1.0`` tuner picks on the tuning
      tail the store was tuned on;
    * ``measured``: baseline ÷ the store's own reads, the ``sim_bw_gain`` of
      :func:`~repro.simulation.simulate_store` (which resets the store).

    The factors are ``placement`` P, ``cache`` B/P, ``allocation`` A/B,
    ``drift`` C/A and ``sampling`` measured/C.  They multiply to
    measured by construction, so what shows the oracles sound is
    ``replayed == measured``: replayed at the store's own split and
    thresholds, the oracle reads what the store read.  An untuned store has no
    tuner to stand in for, so its two tuning factors are one, ``threshold``
    measured/A.  A table's thresholds are the candidate grid plus its own.
    """
    config = store.config
    result = simulate_store(store, eval_trace)
    chunk = allocation_chunk(config.total_cache_vectors)
    chunks = config.total_cache_vectors // chunk
    fewest = [0.0] + [np.inf] * chunks  # fewest reads of the tables so far, by chunks used
    distinct = 0
    at_split: Dict[str, Dict[float, int]] = {}
    for name, trace in eval_trace.items():
        state = store.tables[name]
        distinct += np.unique(state.layout.block_of(trace.flatten())).size
        # Thresholds between the same two count levels admit the same vectors:
        # one replay per level serves them all.
        levels = np.unique(state.access_counts)
        candidates = {*config.candidate_thresholds, state.cache_config.threshold}
        level_of = {t: int(np.searchsorted(levels, t, side="right")) for t in candidates}
        first = {level: t for t, level in level_of.items()}
        policies = [AccessThresholdPolicy(state.access_counts, t) for t in first.values()]
        policies.append(NoPrefetchPolicy())

        def reads(size: int) -> Tuple[Dict[float, int], bool]:
            """Reads by threshold at ``size``, and whether no cache evicted
            (then every larger size reads the same)."""
            stats = replay_table_cache_multi(
                trace.queries, state.layout, policies, [size] * len(policies)
            )
            by_level = dict(zip(first, (s.block_reads for s in stats)))
            by_threshold = {t: by_level[level_of[t]] for t in candidates}
            by_threshold[np.inf] = stats[-1].block_reads
            return by_threshold, size > 0 and not any(s.evictions for s in stats)

        best: List[float] = []
        saturated = False
        for k in range(chunks + 1):
            if not saturated:
                by_threshold, saturated = reads(k * chunk)
            best.append(min(by_threshold.values()))
        fewest = [min(fewest[j - k] + best[k] for k in range(j + 1)) for j in range(chunks + 1)]
        at_split[name] = reads(state.cache_config.cache_size_vectors)[0]
    baseline, measured = result.total_baseline_block_reads, result.total_block_reads
    oracle_b = min(fewest)
    oracle_a = sum(min(by_threshold.values()) for by_threshold in at_split.values())
    factors = {
        "placement": baseline / distinct,
        "cache": distinct / oracle_b,
        "allocation": oracle_b / oracle_a,
    }
    if config.tune_thresholds:
        full_size = tune(
            tuning_split(training_trace, config),
            {name: (state.layout, state.access_counts) for name, state in store.tables.items()},
            {name: state.cache_config.cache_size_vectors for name, state in store.tables.items()},
            replace(config, mini_cache_sampling_rate=1.0),
        )
        oracle_c = sum(at_split[name][full_size[name]] for name in at_split)
        factors.update(drift=oracle_a / oracle_c, sampling=oracle_c / measured)
    else:
        factors["threshold"] = oracle_a / measured
    caches = {name: state.cache_config for name, state in store.tables.items()}
    return LossChain(
        factors=factors,
        on_grid=all(cache.cache_size_vectors % chunk == 0 for cache in caches.values()),
        replayed={name: at_split[name][caches[name].threshold] for name in at_split},
        measured={name: table.stats.block_reads for name, table in result.per_table.items()},
    )
