"""Golden regression test: frozen counters of a seeded placement study.

A small two-table placement-study store (SHP placement, unlimited caches,
cache-all-block prefetch — the configuration behind the paper's store-wide
placement numbers) is built from fixed seeds and replayed; every counter the
replay produces is pinned.  Any silent drift in the trace generator, the SHP
partitioner, the replay engine or the store plumbing fails tier-1 here.

The pins live in ``tests/goldens.json`` (entry ``golden_store``) beside the
store's stage chain, so a moved layout fails as "layout".  If a change
intentionally alters replay semantics, re-pin with ``python -m tests.goldens
--only golden_store`` and say in CHANGES.md why the numbers moved.
"""

import numpy as np

from repro.caching.policies import CacheAllBlockPolicy
from repro.caching.replay import ReplayStats
from repro.core.bandana import BandanaStore, BandanaTableState
from repro.core.config import BandanaConfig, TableCacheConfig
from repro.partitioning import SHPPartitioner
from repro.simulation import simulate_store
from repro.workloads import SyntheticTraceGenerator
from repro.workloads.tables_spec import TableSpec
from repro.workloads.trace import ModelTrace
from tests.conftest import golden, store_stages

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

def build_golden_store():
    """The frozen workload: fixed seeds end to end, SHP placement; returns
    the store and its training and evaluation traces."""
    config = BandanaConfig(total_cache_vectors=3072, tune_thresholds=False)
    tables = {}
    train = {}
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
        train[name] = train_trace
        evaluation[name] = eval_trace
    return BandanaStore(config, tables), ModelTrace(train), ModelTrace(evaluation)


def golden_store_counters():
    """The store's stage chain, then its counters: per table the candidate's
    ``ReplayStats.counters()`` and the no-prefetch baseline's (lookups, hits,
    misses), the store-wide totals (hit rate to 10 places), and the store's
    own block-read tally, which must be the total it served."""
    store, train, evaluation = build_golden_store()
    result = simulate_store(store, evaluation)
    baseline = {name: result.per_table[name].baseline_stats for name in SPECS}
    return {
        **store_stages(store, [train, evaluation], result),
        "candidate": {name: result.per_table[name].stats.counters() for name in SPECS},
        "baseline": {name: (b.lookups, b.hits, b.misses) for name, b in baseline.items()},
        "total_block_reads": result.total_block_reads,
        "baseline_block_reads": result.total_baseline_block_reads,
        "aggregate_hit_rate": round(result.aggregate_hit_rate, 10),
        "store_block_reads": store.aggregate_stats().block_reads,
    }


def test_golden_store_counters():
    golden("golden_store")
