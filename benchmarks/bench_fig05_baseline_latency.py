"""Figure 5 — mean/P99 latency versus application throughput for the baseline policy.

The baseline policy issues a 4 KB block read but uses only 128 B of it (~3 %
effective bandwidth), so the device saturates at a small application
throughput; reading 4 KB of useful data per block (100 % effective bandwidth)
sustains ~32× more application throughput before latency spikes.

The curve is measured, not assumed: each point offers a seeded Poisson
stream of single-block reads to the simulated device
(:func:`repro.device.read_latency_under_load`) at the device throughput the
application throughput implies, and reports the reads' mean and P99 latency.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result
from repro.device import read_latency_under_load
from repro.simulation.report import format_table

THROUGHPUTS_MBPS = [10, 25, 50, 75, 100, 500, 1000, 2000]
BASELINE_FRACTION = 128 / 4096


def measure_figure5():
    """``{throughput: (baseline (mean, p99), full (mean, p99))}`` in µs."""
    return {
        throughput: (
            read_latency_under_load(throughput / BASELINE_FRACTION),
            read_latency_under_load(throughput),
        )
        for throughput in THROUGHPUTS_MBPS
    }


def run_figure5():
    curve = measure_figure5()
    rows = [
        [throughput, f"{b_mean:.0f}", f"{b_p99:.0f}", f"{f_mean:.0f}", f"{f_p99:.0f}"]
        for throughput, ((b_mean, b_p99), (f_mean, f_p99)) in curve.items()
    ]
    table = format_table(
        [
            "app throughput (MB/s)",
            "baseline mean (us)",
            "baseline p99 (us)",
            "100% eff. BW mean (us)",
            "100% eff. BW p99 (us)",
        ],
        rows,
    )
    return table, curve


def test_fig05_baseline_latency(benchmark):
    table, curve = benchmark.pedantic(run_figure5, rounds=1, iterations=1)
    save_result("fig05_baseline_latency", table)
    # At 100 MB/s of application traffic the baseline is already saturated
    # while the 100% effective-bandwidth configuration is not (Figure 5).
    baseline, full = curve[100]
    assert baseline[0] > 10 * full[0]
    # At low load the two configurations are comparable.
    baseline, full = curve[10]
    assert baseline[0] < 3 * full[0]
