"""End-to-end integration test: the full paper pipeline on a tiny workload.

Covers the whole flow the benchmarks use — generate traces, train SHP, build
the store, tune thresholds with miniature caches, replay a held-out trace and
compare against the baseline and against the original (unsorted) placement —
asserting the paper's qualitative conclusions on a configuration small enough
for CI.
"""

from dataclasses import replace

import pytest

from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig
from repro.nvm.block import BlockLayout
from repro.nvm.endurance import EnduranceTracker
from repro.device import read_latency_under_load
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


#: The pipeline's store configuration.
CONFIG = BandanaConfig(
    total_cache_vectors=4800,
    shp_iterations=6,
    mini_cache_sampling_rate=0.25,
    seed=0,
)


def build_store(pipeline) -> BandanaStore:
    specs, train, _ = pipeline
    return BandanaStore.build(
        train, CONFIG, num_vectors={n: s.num_vectors for n, s in specs.items()}
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

    @pytest.mark.parametrize("ratio", [0.15, 0.3, 0.5])
    def test_cacheable_table_gains_more_than_random_table(self, pipeline, ratio):
        """Fig. 13: at the same cache-to-working-set ratio, a table with a low
        compulsory-miss rate gains more from prefetching than a random one.

        Each table gets a one-table store whose whole budget is ``ratio`` of
        the vectors its evaluation trace touches, so the store's own tuner
        picks the threshold at that size.
        """
        specs, train, evaluation = pipeline
        gains = {}
        for name, spec in specs.items():
            working_set = evaluation[name].unique_vectors().size
            config = replace(CONFIG, total_cache_vectors=round(ratio * working_set))
            store = BandanaStore.build(
                ModelTrace({name: train[name]}),
                config,
                num_vectors={name: spec.num_vectors},
            )
            result = simulate_store(store, ModelTrace({name: evaluation[name]}))
            gains[name] = result.bandwidth_increase
        assert gains["cacheable"] > gains["random"]
        assert gains["cacheable"] > 0

    def test_latency_improves_with_effective_bandwidth(self, pipeline):
        """Figure 5's consequence: at the same application load, a higher
        effective bandwidth keeps the device further from saturation."""
        _, _, evaluation = pipeline
        store = build_store(pipeline)
        result = simulate_store(store, evaluation)
        app_mbps = 120.0
        baseline_fraction = 128 / 4096
        bandana_fraction = min(1.0, store.effective_bandwidth())
        baseline_mean_us, _ = read_latency_under_load(app_mbps / baseline_fraction)
        bandana_mean_us, _ = read_latency_under_load(app_mbps / bandana_fraction)
        assert bandana_mean_us <= baseline_mean_us
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
