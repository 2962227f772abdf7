"""Figure 13 — end-to-end effective bandwidth increase versus total cache size.

The full Bandana pipeline (SHP placement, hit-rate-curve DRAM split, miniature
cache threshold tuning) is built at every total-DRAM budget and replayed over
held-out traces for all eight tables.  The placement does not read the budget,
so :meth:`~repro.core.bandana.BandanaStore.build_sweep` runs SHP once for the
whole sweep.  Gains grow with the cache size, and cacheable tables (1, 2, 7)
gain far more than near-uniform ones (8).
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result
from benchmarks.conftest import ALL_TABLES
from repro.core.bandana import BandanaStore
from repro.core.config import BandanaConfig
from repro.simulation.experiment import ExperimentSweep
from repro.simulation.runner import simulate_store
from repro.workloads.trace import ModelTrace

#: Total DRAM budgets as multiples of the aggregate evaluation working set
#: (the paper's 1–5 M vector sweep spans a similar range relative to its
#: working set).
BUDGET_FRACTIONS = [0.5, 1.0, 1.5, 2.0]


def build_stores(bundle, budgets):
    """The store at each total-DRAM budget, on one SHP placement."""
    train = ModelTrace({name: bundle[name].train for name in ALL_TABLES})
    config = BandanaConfig(shp_iterations=8, mini_cache_sampling_rate=0.25, seed=3)
    sizes = {name: bundle[name].spec.num_vectors for name in ALL_TABLES}
    return BandanaStore.build_sweep(train, config, budgets, None, sizes)


def run_figure13(bundle):
    eval_trace = ModelTrace({name: bundle[name].evaluation for name in ALL_TABLES})
    total_working_set = sum(bundle[name].eval_unique for name in ALL_TABLES)
    sweep = ExperimentSweep("figure13", "end-to-end bandwidth increase vs total cache size")
    per_table_gains = {}
    overall = {}
    budgets = [max(256, int(round(total_working_set * f))) for f in BUDGET_FRACTIONS]
    stores = build_stores(bundle, budgets)
    for fraction, budget, store in zip(BUDGET_FRACTIONS, budgets, stores):
        result = simulate_store(store, eval_trace)
        overall[fraction] = result.bandwidth_increase
        for name, table_result in result.per_table.items():
            per_table_gains[(name, fraction)] = table_result.bandwidth_increase
            sweep.add(
                {"cache_fraction_of_ws": fraction, "cache_vectors": budget, "table": name},
                {"bw_increase": table_result.bandwidth_increase},
            )
        sweep.add(
            {"cache_fraction_of_ws": fraction, "cache_vectors": budget, "table": "ALL"},
            {"bw_increase": result.bandwidth_increase},
        )
    return sweep, overall, per_table_gains


def test_fig13_cache_size(bundle, benchmark):
    sweep, overall, per_table = benchmark.pedantic(
        run_figure13, args=(bundle,), rounds=1, iterations=1
    )
    save_result("fig13_cache_size", sweep.to_table())
    fractions = sorted(overall)
    # Gains are positive once the cache is comparable to the working set and
    # grow (weakly) with the budget.
    assert overall[fractions[-1]] > 0
    assert overall[fractions[-1]] >= overall[fractions[0]] - 0.02
    # Cacheable table 2 ends up gaining more than the near-uniform table 8.
    assert per_table[("table2", fractions[-1])] >= per_table[("table8", fractions[-1])]
