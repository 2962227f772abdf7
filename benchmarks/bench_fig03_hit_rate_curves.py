"""Figure 3 — hit-rate curves of the user embedding tables with the most lookups.

The paper computes Mattson stack distances over an infinite LRU per table and
plots the hit rate as a function of the DRAM dedicated to the table.  The
benchmark reports each curve at cache sizes expressed as fractions of the
table's evaluation working set.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import numpy as np

from benchmarks.common import save_result
from benchmarks.conftest import TOP_TABLES
from repro.caching.stack_distance import hit_rate_curve
from repro.simulation.report import format_table

FRACTIONS = [0.05, 0.1, 0.2, 0.4, 0.8, 1.2]


def run_figure3(bundle):
    rows = []
    curves = {}
    for name in TOP_TABLES:
        workload = bundle[name]
        sizes = [max(1, int(round(workload.eval_unique * f))) for f in FRACTIONS]
        curve = hit_rate_curve(workload.evaluation, cache_sizes=sizes)
        curves[name] = curve
        rows.append(
            [name] + [f"{rate:.2f}" for rate in curve.hit_rates]
        )
    headers = ["table"] + [f"cache={f:.2f}x WS" for f in FRACTIONS]
    return format_table(headers, rows), curves


def test_fig03_hit_rate_curves(bundle):
    table, curves = run_figure3(bundle)
    save_result("fig03_hit_rate_curves", table)
    for name, curve in curves.items():
        # Curves are monotone and saturate below 1 - compulsory-miss rate.
        assert (np.diff(curve.hit_rates) >= -1e-9).all()
        assert curve.hit_rates[-1] <= 1.0
    # Table 2 (lowest compulsory-miss rate) caches best at the largest size.
    assert curves["table2"].hit_rates[-1] >= curves["table6"].hit_rates[-1] - 0.05
