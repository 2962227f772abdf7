"""Quickstart: store one embedding table on (simulated) NVM with Bandana.

The script walks the full pipeline on a single scaled-down table:

1. generate a production-like lookup trace (training + evaluation slices),
2. build a :class:`repro.BandanaStore` — SHP placement, DRAM cache sizing and
   miniature-cache threshold tuning happen inside ``build`` —,
3. serve the evaluation trace and report hit rate, effective bandwidth and the
   block-read reduction versus the paper's baseline policy.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

from repro import BandanaConfig, BandanaStore
from repro.embeddings import EmbeddingModel, EmbeddingTable, synthesize_topic_vectors
from repro.simulation import simulate_store
from repro.workloads import (
    SyntheticTraceGenerator,
    paper_shaped_lookups,
    scaled_table_specs,
)
from repro.workloads.trace import ModelTrace


def main() -> None:
    # ------------------------------------------------------------------ data
    # Use the paper's "table 2" (the busiest user-embedding table), scaled to
    # 1/1000 of its production size so the example runs in seconds.
    spec = scaled_table_specs(1 / 1000, names=["table2"])["table2"]
    eval_lookups = paper_shaped_lookups(spec)
    generator = SyntheticTraceGenerator(spec, seed=1, expected_lookups=eval_lookups)

    train_trace = ModelTrace({spec.name: generator.generate_lookups(3 * eval_lookups)})
    eval_trace = ModelTrace({spec.name: generator.generate_lookups(eval_lookups)})

    # Synthetic embedding values whose geometry mirrors the workload's
    # co-access topics (only needed because we want real vectors back).
    values = synthesize_topic_vectors(generator.topic_of(), dim=64, noise=0.45, seed=2)
    embedding_model = EmbeddingModel(
        {spec.name: EmbeddingTable(spec.name, spec.num_vectors, dim=64, values=values)}
    )

    # ----------------------------------------------------------------- build
    working_set = eval_trace[spec.name].unique_vectors().size
    config = BandanaConfig(
        total_cache_vectors=int(round(working_set * 1.3)),
        mini_cache_sampling_rate=0.25,
        seed=0,
    )
    store = BandanaStore.build(train_trace, config, embedding_model=embedding_model)
    state = store.tables[spec.name]
    print(f"table {spec.name}: {spec.num_vectors} vectors, "
          f"{state.layout.num_blocks} NVM blocks of {config.block_bytes} B")
    print(f"DRAM cache: {state.cache_config.cache_size_vectors} vectors, "
          f"tuned admission threshold t={state.cache_config.threshold:.0f}")

    # ----------------------------------------------------------------- serve
    first_query = eval_trace[spec.name].queries[0]
    vectors = store.lookup(spec.name, first_query)
    print(f"served a query of {len(first_query)} ids -> vectors of shape {vectors.shape}")

    result = simulate_store(store, eval_trace)
    stats = store.table_stats()[spec.name]
    bandwidth = store.effective_bandwidth()
    print(f"evaluation trace: {stats.lookups} lookups, hit rate {stats.hit_rate:.2f}")
    print(f"effective bandwidth: {bandwidth:.2f} application bytes per NVM byte "
          f"(baseline policy: {128 / 4096:.3f})")
    print(f"block reads vs no-prefetch baseline: "
          f"{result.total_block_reads} vs {result.total_baseline_block_reads} "
          f"({100 * result.bandwidth_increase:+.0f}% effective bandwidth)")

    # TCO framing from the paper's introduction: DRAM needed with Bandana
    # versus keeping the whole table in DRAM.
    all_dram_bytes = embedding_model.nbytes
    print(f"DRAM footprint: {store.dram_bytes() / 1024:.0f} KiB cached "
          f"vs {all_dram_bytes / 1024:.0f} KiB for an all-DRAM deployment")


if __name__ == "__main__":
    main()
