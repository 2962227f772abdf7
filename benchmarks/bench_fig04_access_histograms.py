"""Figure 4 — access histograms of the user embedding tables with the most lookups.

Each histogram shows how many vectors were read a given number of times; the
paper's histograms are extremely heavy-tailed (most vectors are read a handful
of times, a few are read orders of magnitude more often).
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result
from benchmarks.conftest import TOP_TABLES
from repro.simulation.report import format_table
from repro.workloads.characterization import access_counts, access_histogram

NUM_BINS = 8


def run_figure4(bundle):
    rows = []
    stats = {}
    for name in TOP_TABLES:
        workload = bundle[name]
        counts = access_counts(workload.evaluation)
        edges, histogram = access_histogram(workload.evaluation, num_bins=NUM_BINS)
        touched = counts[counts > 0]
        stats[name] = (touched, histogram)
        rows.append(
            [
                name,
                int(touched.size),
                int(touched.max()) if touched.size else 0,
                f"{touched.mean():.1f}" if touched.size else "0",
            ]
            + histogram.tolist()
        )
    headers = ["table", "vectors touched", "max reads", "mean reads"] + [
        f"bin{i}" for i in range(NUM_BINS)
    ]
    return format_table(headers, rows), stats


def test_fig04_access_histograms(bundle):
    table, stats = run_figure4(bundle)
    save_result("fig04_access_histograms", table)
    for name, (touched, histogram) in stats.items():
        # Heavy tail: the lowest-count bin holds the most vectors and the
        # maximum count is far above the mean, as in the paper's Figure 4.
        assert histogram[0] == histogram.max()
        assert touched.max() > 5 * touched.mean()
