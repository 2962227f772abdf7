"""Shared fixtures: a small synthetic table/workload reused across the suite.

The fixtures are deliberately tiny (a few thousand vectors, tens of thousands
of lookups) so the full suite runs in well under a minute, while still
exercising the same code paths the benchmarks use at larger scale.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

from repro.caching.lru import LRUCache
from repro.caching.policies import (
    AccessThresholdPolicy,
    CacheAllBlockPolicy,
    CombinedPolicy,
    InsertAtPositionPolicy,
    NoPrefetchPolicy,
    ShadowAdmissionPolicy,
)
from repro.caching.replay import ReplayStats
from repro.core.bandana import BandanaStore, BandanaTableState
from repro.core.config import BandanaConfig, TableCacheConfig
from repro.embeddings import EmbeddingTable, synthesize_topic_vectors
from repro.nvm.block import BlockLayout
from repro.partitioning import SHPPartitioner
from repro.scenarios import ScenarioConfig, generate_scenario_trace
from repro.workloads import SyntheticTraceGenerator, TableSpec, scaled_table_specs
from repro.workloads.characterization import access_counts
from repro.workloads.trace import ModelTrace, Trace

VECTORS_PER_BLOCK = 32


class InspectableLRUCache(LRUCache):
    """The reference loop's :class:`LRUCache` plus what only tests inspect.

    Size, iteration, the MRU → LRU key order, the eviction count, and the
    ``touch`` (promote on hit) and ``remove`` mutators.  The reference loop
    itself needs only ``get``, ``peek``, ``insert`` and membership.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        #: Number of entries evicted so far (reset by ``clear``).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._priority)

    def __iter__(self):
        return iter(self._priority)

    def keys(self):
        """Resident keys ordered from most- to least-recently prioritised."""
        return sorted(self._priority, key=lambda k: -self._priority[k])

    def touch(self, key: int) -> bool:
        """Alias of ``get`` (promote on hit)."""
        return self.get(key)

    def remove(self, key: int) -> bool:
        """Remove ``key`` if present (stale heap entries are cleaned lazily)."""
        return self._priority.pop(key, None) is not None

    def clear(self) -> None:
        super().clear()
        self.evictions = 0

    def _evict_one(self):
        key = super()._evict_one()
        if key is not None:
            self.evictions += 1
        return key

#: Block geometry of :func:`build_store`'s tables.
STORE_VECTORS_PER_BLOCK = 8

#: One :func:`build_store` table per built-in policy, with cache sizes spanning
#: unlimited, comfortable, block-sized, churning and degenerate regimes (None
#: means "as large as the table").  A store serves only policies that admit
#: at the top of the queue, so the two positional policies sit at position 0.
POLICY_TABLES = {
    "t-noprefetch": (lambda counts: NoPrefetchPolicy(), 30),
    "t-cacheall": (lambda counts: CacheAllBlockPolicy(), None),
    "t-insertpos": (lambda counts: InsertAtPositionPolicy(0.0), 9),
    "t-shadow": (lambda counts: ShadowAdmissionPolicy(30, 1.5), 3),
    "t-combined": (lambda counts: CombinedPolicy(30, position=0.0), 1),
    "t-threshold": (lambda counts: AccessThresholdPolicy(counts, 10), 48),
}


def make_spec(
    name: str = "test-table",
    num_vectors: int = 4096,
    avg_lookups: float = 24.0,
    compulsory: float = 0.15,
    alpha: float = 0.9,
) -> TableSpec:
    """A small table spec usable by any test."""
    return TableSpec(
        name=name,
        num_vectors=num_vectors,
        avg_lookups_per_query=avg_lookups,
        lookup_share=0.25,
        compulsory_miss_rate=compulsory,
        popularity_alpha=alpha,
        num_topics=64,
    )


def count_python_calls(function):
    """Run ``function()``; return (its result, Python-level calls it made).

    ``sys.setprofile`` ``call`` events: a pure function of the code and the
    seed, so the call-budget tests fence host cost without a wall clock.
    """
    calls = 0

    def on_event(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(on_event)
    try:
        result = function()
    finally:
        sys.setprofile(None)
    return result, calls


def counters(stats: ReplayStats):
    """Every replay counter, simulated device latency included."""
    return stats.counters(include_latency=True)


def build_store(seed: int):
    """A multi-table store (one table per policy) plus its evaluation trace.

    Layouts, cache sizes, traces and access counts are randomized per seed;
    identical seeds produce identical stores, so two builds can be replayed
    by different paths and compared counter for counter.
    """
    rng = np.random.default_rng(seed)
    config = BandanaConfig(
        total_cache_vectors=100,
        tune_thresholds=False,
        vector_bytes=128,
        block_bytes=STORE_VECTORS_PER_BLOCK * 128,
    )
    tables = {}
    traces = {}
    for name, (make_policy, size) in POLICY_TABLES.items():
        num_vectors = int(rng.integers(60, 300))
        layout = BlockLayout(
            rng.permutation(num_vectors).astype(np.int64), STORE_VECTORS_PER_BLOCK
        )
        counts = rng.integers(0, 30, size=num_vectors).astype(np.int64)
        queries = [
            rng.integers(0, num_vectors, size=int(rng.integers(1, 10))).astype(np.int64)
            for _ in range(int(rng.integers(60, 120)))
        ]
        cache_size = num_vectors if size is None else min(size, num_vectors)
        tables[name] = BandanaTableState(
            name=name,
            layout=layout,
            policy=make_policy(counts),
            cache_config=TableCacheConfig(cache_size_vectors=cache_size),
            access_counts=counts,
            stats=ReplayStats(
                vector_bytes=config.vector_bytes, block_bytes=config.block_bytes
            ),
        )
        traces[name] = Trace(queries, num_vectors=num_vectors)
    return BandanaStore(config, tables), ModelTrace(traces)


def trace_digest(trace: Trace) -> dict:
    """Shape and sha256 of a trace: its ``flatten()`` bytes, then the query lengths."""
    lengths = np.array([query.size for query in trace.queries], dtype=np.int64)
    sha = hashlib.sha256(trace.flatten().astype("<i8").tobytes())
    sha.update(lengths.astype("<i8").tobytes())
    return {
        "queries": len(trace),
        "lookups": int(lengths.sum()),
        "sha256": sha.hexdigest(),
    }


def _replay_case(num_vectors: int, train: Trace, evaluation: Trace, iterations: int):
    """(SHP layout trained on ``train``, its access counts, the queries to replay)."""
    partitioner = SHPPartitioner(
        vectors_per_block=VECTORS_PER_BLOCK, num_iterations=iterations, seed=3
    )
    layout = partitioner.partition(num_vectors, trace=train).layout(VECTORS_PER_BLOCK)
    return layout, access_counts(train), evaluation.queries


def drift_replay_case():
    """``drift-repartition``'s shape: a 4 096-vector drift window, split in half."""
    trace = generate_scenario_trace(
        ScenarioConfig(kind="drift", num_queries=400, num_vectors=4096, seed=3)
    )
    train, evaluation = trace.split(0.5)
    return _replay_case(4096, train, evaluation, iterations=8)


def table1_replay_case():
    """The serving workloads' shape: table1 at 1/2000 (5 000 vectors)."""
    spec = scaled_table_specs(1 / 2000, names=["table1"])["table1"]
    generator = SyntheticTraceGenerator(spec, seed=3)
    train, evaluation = generator.generate(600), generator.generate(300)
    return _replay_case(spec.num_vectors, train, evaluation, iterations=16)


@pytest.fixture(scope="session")
def small_spec() -> TableSpec:
    return make_spec()


@pytest.fixture(scope="session")
def generator(small_spec) -> SyntheticTraceGenerator:
    return SyntheticTraceGenerator(small_spec, seed=7, expected_lookups=6000)


@pytest.fixture(scope="session")
def train_trace(generator) -> Trace:
    return generator.generate_lookups(12000)


@pytest.fixture(scope="session")
def eval_trace(generator) -> Trace:
    return generator.generate_lookups(6000)


@pytest.fixture(scope="session")
def shp_layout(small_spec, train_trace):
    partitioner = SHPPartitioner(
        vectors_per_block=VECTORS_PER_BLOCK, num_iterations=8, seed=0
    )
    result = partitioner.partition(small_spec.num_vectors, trace=train_trace)
    return result.layout(VECTORS_PER_BLOCK)


@pytest.fixture(scope="session")
def embedding_table(small_spec, generator) -> EmbeddingTable:
    values = synthesize_topic_vectors(
        generator.topic_of(), dim=16, noise=0.4, seed=3, dtype=np.float32
    )
    return EmbeddingTable(
        small_spec.name, small_spec.num_vectors, dim=16, dtype=np.float32, values=values
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
