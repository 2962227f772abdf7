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
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.bandana import BandanaStore
from repro.device import DEVICE_SLOTS
from repro.nvm.block import BlockLayout
from repro.nvm.latency import NVMLatencyModel
from repro.partitioning import SHPPartitioner
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


def save_result(name: str, text: str) -> None:
    """Print a benchmark's result table and persist it under ``results/``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


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
