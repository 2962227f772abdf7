"""End-to-end integration test: the full paper pipeline on a tiny workload.

Covers the whole flow the benchmarks use — generate traces, train SHP, build
the store, tune thresholds with miniature caches, replay a held-out trace and
compare against the baseline and against the original (unsorted) placement —
asserting the paper's qualitative conclusions on a configuration small enough
for CI.
"""

import pytest

from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig
from repro.nvm.block import BlockLayout
from repro.nvm.endurance import EnduranceTracker
from repro.nvm.latency import NVMLatencyModel
from repro.simulation.runner import simulate_store
from repro.workloads import SyntheticTraceGenerator
from repro.workloads.trace import ModelTrace
from tests.conftest import make_spec


@pytest.fixture(scope="module")
def pipeline():
    specs = {
        "cacheable": make_spec(
            name="cacheable", num_vectors=4096, avg_lookups=24, compulsory=0.08, alpha=1.0
        ),
        "random": make_spec(
            name="random", num_vectors=4096, avg_lookups=12, compulsory=0.55, alpha=0.4
        ),
    }
    generators = {
        name: SyntheticTraceGenerator(spec, seed=31 + i, expected_lookups=6000)
        for i, (name, spec) in enumerate(specs.items())
    }
    train = ModelTrace({n: g.generate_lookups(15000) for n, g in generators.items()})
    evaluation = ModelTrace({n: g.generate_lookups(6000) for n, g in generators.items()})
    return specs, train, evaluation


def build_store(pipeline) -> BandanaStore:
    specs, train, _ = pipeline
    # The hit-rate split hands most of the budget to the random table; at
    # 3 200 vectors or fewer the tuner then gives the cacheable table a
    # threshold that admits (almost) no prefetch.
    config = BandanaConfig(
        total_cache_vectors=4800,
        shp_iterations=6,
        mini_cache_sampling_rate=0.25,
        seed=0,
    )
    return BandanaStore.build(
        train, config, num_vectors={n: s.num_vectors for n, s in specs.items()}
    )


class TestFullPipeline:
    def test_shp_store_beats_baseline_and_identity(self, pipeline):
        _, _, evaluation = pipeline
        store = build_store(pipeline)
        shp_result = simulate_store(store, evaluation)
        shp_block_reads = shp_result.total_block_reads
        for name, state in store.tables.items():
            store.swap_layout(
                name,
                BlockLayout.identity(state.layout.num_vectors, store.config.vectors_per_block),
            )
        identity_result = simulate_store(store, evaluation)
        # Bandana's headline: fewer NVM block reads than the baseline policy,
        # and placement matters (SHP beats leaving the table unsorted).
        assert shp_result.bandwidth_increase > 0
        assert shp_block_reads < identity_result.total_block_reads

    def test_cacheable_table_gains_more_than_random_table(self, pipeline):
        _, _, evaluation = pipeline
        result = simulate_store(build_store(pipeline), evaluation)
        gains = {name: r.bandwidth_increase for name, r in result.per_table.items()}
        # The paper: tables with low compulsory-miss rates benefit most.
        assert gains["cacheable"] > gains["random"]

    def test_latency_improves_with_effective_bandwidth(self, pipeline):
        """Figure 5's consequence: at the same application load, a higher
        effective bandwidth keeps the device further from saturation."""
        _, _, evaluation = pipeline
        store = build_store(pipeline)
        result = simulate_store(store, evaluation)
        model = NVMLatencyModel()
        app_mbps = 120.0
        baseline_fraction = 128 / 4096
        bandana_fraction = min(1.0, store.effective_bandwidth())
        baseline_latency = model.application_latency(app_mbps, baseline_fraction)
        bandana_latency = model.application_latency(app_mbps, bandana_fraction)
        assert bandana_latency.mean_us <= baseline_latency.mean_us
        assert result.total_block_reads > 0

    def test_retraining_stays_within_endurance(self, pipeline):
        store = build_store(pipeline)
        # Rewrite every table 20 times (the paper's upper retraining rate)
        # over one simulated day and check the endurance budget holds.
        for state in store.tables.values():
            table_bytes = state.layout.num_blocks * store.config.block_bytes
            tracker = EnduranceTracker(capacity_bytes=table_bytes, dwpd_limit=30)
            for _ in range(20):
                tracker.record_write(table_bytes)
            tracker.advance_time(1.0)
            assert tracker.device_writes == pytest.approx(20.0)
            assert tracker.within_budget, state.name
