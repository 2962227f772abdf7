"""Golden regression test: frozen counters of a seeded placement study.

A small two-table placement-study store (SHP placement, unlimited caches,
cache-all-block prefetch — the configuration behind the paper's store-wide
placement numbers) is built from fixed seeds and replayed; every counter the
replay produces is pinned to the values frozen below.  Any silent drift in
the trace generator, the SHP partitioner, the replay engine or the store
plumbing fails tier-1 here.

If a change intentionally alters replay semantics, re-derive the goldens by
running the builder below and update the frozen values in the same commit,
explaining why the numbers moved.
"""

import numpy as np
import pytest

from repro.caching.policies import CacheAllBlockPolicy
from repro.caching.replay import ReplayStats
from repro.core.bandana import BandanaStore, BandanaTableState
from repro.core.config import BandanaConfig, TableCacheConfig
from repro.partitioning import SHPPartitioner
from repro.simulation import simulate_store
from repro.workloads import SyntheticTraceGenerator
from repro.workloads.tables_spec import TableSpec
from repro.workloads.trace import ModelTrace

VECTORS_PER_BLOCK = 32

SPECS = {
    "alpha": TableSpec(
        name="alpha",
        num_vectors=2048,
        avg_lookups_per_query=16.0,
        lookup_share=0.6,
        compulsory_miss_rate=0.1,
        popularity_alpha=0.9,
        num_topics=32,
    ),
    "beta": TableSpec(
        name="beta",
        num_vectors=1024,
        avg_lookups_per_query=8.0,
        lookup_share=0.4,
        compulsory_miss_rate=0.3,
        popularity_alpha=0.8,
        num_topics=32,
    ),
}

#: Frozen candidate counters per table:
#: (lookups, hits, misses, prefetch_admitted, prefetch_hits,
#:  prefetch_evicted_unused, evictions)
GOLDEN_CANDIDATE = {
    "alpha": (3538, 3474, 64, 1984, 391, 0, 0),
    "beta": (3775, 3743, 32, 992, 769, 0, 0),
}

#: Frozen no-prefetch baseline counters per table: (lookups, hits, misses).
GOLDEN_BASELINE = {
    "alpha": (3538, 3083, 455),
    "beta": (3775, 2974, 801),
}

GOLDEN_TOTAL_BLOCK_READS = 96
GOLDEN_BASELINE_BLOCK_READS = 1256
GOLDEN_AGGREGATE_HIT_RATE = 0.9868726925


def build_golden_store():
    """The frozen workload: fixed seeds end to end, SHP placement."""
    config = BandanaConfig(total_cache_vectors=3072, tune_thresholds=False)
    tables = {}
    evaluation = {}
    for index, (name, spec) in enumerate(SPECS.items()):
        generator = SyntheticTraceGenerator(spec, seed=40 + index, expected_lookups=4000)
        train_trace = generator.generate_lookups(8000)
        eval_trace = generator.generate_lookups(4000)
        shp = SHPPartitioner(
            vectors_per_block=VECTORS_PER_BLOCK, num_iterations=4, seed=0
        )
        layout = shp.partition(spec.num_vectors, trace=train_trace).layout(
            VECTORS_PER_BLOCK
        )
        tables[name] = BandanaTableState(
            name=name,
            layout=layout,
            policy=CacheAllBlockPolicy(),
            # Unlimited cache: a placement study.
            cache_config=TableCacheConfig(cache_size_vectors=spec.num_vectors),
            access_counts=np.zeros(spec.num_vectors, dtype=np.int64),
            stats=ReplayStats(vector_bytes=128, block_bytes=4096),
        )
        evaluation[name] = eval_trace
    return BandanaStore(config, tables), ModelTrace(evaluation)


def candidate_counters(stats: ReplayStats):
    return stats.counters()


def test_golden_store_counters():
    store, eval_trace = build_golden_store()
    result = simulate_store(store, eval_trace)
    for name in SPECS:
        table = result.per_table[name]
        assert candidate_counters(table.stats) == GOLDEN_CANDIDATE[name], name
        baseline = table.baseline_stats
        assert (
            baseline.lookups,
            baseline.hits,
            baseline.misses,
        ) == GOLDEN_BASELINE[name], name
    assert result.total_block_reads == GOLDEN_TOTAL_BLOCK_READS
    assert result.total_baseline_block_reads == GOLDEN_BASELINE_BLOCK_READS
    assert result.aggregate_hit_rate == pytest.approx(
        GOLDEN_AGGREGATE_HIT_RATE, abs=1e-9
    )
    # The store's tally is the replay counters it served into.
    assert store.aggregate_stats().block_reads == GOLDEN_TOTAL_BLOCK_READS
