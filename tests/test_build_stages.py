"""The store build as four stages, and the loss chain read off them.

``BandanaStore.build`` is ``build_sweep`` at one budget: ``tuning_split`` →
``place`` once, then ``split_dram`` → ``tune`` → ``assemble`` per budget.  A
sweep over several budgets must give, per budget, the stage chain ``build``
gives.  ``benchmarks.common.loss_chain``'s oracle replay at the store's own
split and thresholds must read what the store reads, its factors must multiply
to the measured ``sim_bw_gain``, and they fall in order wherever the greedy
split lies on its own chunk grid.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.common import loss_chain
from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig
from repro.simulation.runner import simulate_store
from repro.workloads import SyntheticTraceGenerator, paper_shaped_lookups, scaled_table_specs
from repro.workloads.trace import ModelTrace
from tests.conftest import store_stages

TABLES = ["table6", "table7"]


@pytest.fixture(scope="module")
def workload():
    """Two Table 1 tables at 1/8000: (sizes, training trace, evaluation trace)."""
    specs = scaled_table_specs(1.0 / 8000.0, names=TABLES)
    train, evaluation = {}, {}
    for index, (name, spec) in enumerate(specs.items()):
        lookups = paper_shaped_lookups(spec, 32)
        generator = SyntheticTraceGenerator(spec, seed=2 * 1009 + index, expected_lookups=lookups)
        train[name] = generator.generate_lookups(3 * lookups)
        evaluation[name] = generator.generate_lookups(4 * lookups)
    sizes = {name: spec.num_vectors for name, spec in specs.items()}
    return sizes, ModelTrace(train), ModelTrace(evaluation)


def config_at(budget, tuned=True):
    return BandanaConfig(
        total_cache_vectors=budget,
        shp_iterations=4,
        tune_thresholds=tuned,
        default_threshold=2,
        mini_cache_sampling_rate=0.1,
        seed=2,
    )


@settings(max_examples=12, deadline=None)
@given(budgets=st.lists(st.integers(1, 600), min_size=1, max_size=3), tuned=st.booleans())
def test_one_placement_per_sweep_is_build_per_budget(workload, budgets, tuned):
    sizes, train, evaluation = workload
    swept = BandanaStore.build_sweep(train, config_at(1, tuned), budgets, None, sizes)
    assert len(swept) == len(budgets)
    for budget, store in zip(budgets, swept):
        built = BandanaStore.build(train, config_at(budget, tuned), num_vectors=sizes)
        assert store.config == built.config
        stages = [
            store_stages(s, [train, evaluation], simulate_store(s, evaluation))
            for s in (store, built)
        ]
        assert stages[0] == stages[1]


def test_swept_stores_own_their_counts(workload):
    sizes, train, _ = workload
    first, second = BandanaStore.build_sweep(train, config_at(100), [100, 200], None, sizes)
    for name in TABLES:
        assert first.tables[name].layout is second.tables[name].layout
        assert first.tables[name].access_counts is not second.tables[name].access_counts


def test_sweep_resolves_sizes_as_build_does(workload):
    sizes, train, evaluation = workload
    partial = {"table6": sizes["table6"]}  # table7 falls back to its trace's size
    (swept,) = BandanaStore.build_sweep(train, config_at(100), [100], None, partial)
    built = BandanaStore.build(train, config_at(100), num_vectors=partial)
    assert swept.tables["table7"].layout.num_vectors == train["table7"].num_vectors
    traces = [train, evaluation]
    stages = [store_stages(s, traces, simulate_store(s, evaluation)) for s in (swept, built)]
    assert stages[0] == stages[1]
    with pytest.raises(ValueError, match="'table9'"):
        BandanaStore.build_sweep(train, config_at(100), [100], None, {"table9": 10})
    with pytest.raises(ValueError, match="table 'table7'"):
        BandanaStore.build_sweep(train, config_at(100), [100], None, {"table7": 1})


@pytest.mark.parametrize(
    "budget, tuned, on_grid",
    [(200, True, True), (300, True, True), (200, False, True), (250, True, False)],
    ids=["200-tuned", "300-tuned", "200-untuned", "250-off-grid"],
)
def test_loss_chain_replays_what_the_store_reads(workload, budget, tuned, on_grid):
    sizes, train, evaluation = workload
    store = BandanaStore.build(train, config_at(budget, tuned), num_vectors=sizes)
    chain = loss_chain(store, train, evaluation)
    result = simulate_store(store, evaluation)
    assert chain.replayed == {name: r.stats.block_reads for name, r in result.per_table.items()}
    assert chain.measured == chain.replayed

    factors = chain.factors
    tuning = ["drift", "sampling"] if tuned else ["threshold"]
    assert list(factors) == ["placement", "cache", "allocation"] + tuning
    gain = 1.0 + result.bandwidth_increase
    assert math.prod(factors.values()) == pytest.approx(gain, rel=0, abs=1e-9)
    assert chain.on_grid is on_grid
    if on_grid:
        # P >= B >= A >= max(measured, C); C may lie either side of measured.
        assert factors["placement"] >= 1.0
        assert factors["cache"] <= 1.0 and factors["allocation"] <= 1.0
        assert factors.get("drift", 1.0) <= 1.0
        assert math.prod(factors[name] for name in tuning) <= 1.0
