"""Figure 2 — NVM latency and bandwidth versus queue depth (4 KB random reads).

The paper measures a 375 GB NVM block device with fio: mean/P99 latency grow
with queue depth while bandwidth saturates around 2.3 GB/s.  This benchmark
prints the same series from the calibrated device model.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

from benchmarks.common import save_result
from repro.nvm.latency import NVMLatencyModel
from repro.simulation.report import format_table

QUEUE_DEPTHS = [1, 2, 4, 8]


def run_figure2() -> str:
    model = NVMLatencyModel()
    rows = []
    for depth in QUEUE_DEPTHS:
        rows.append(
            [
                depth,
                f"{model.mean_latency_us(depth):.1f}",
                f"{model.p99_latency_us(depth):.1f}",
                f"{model.bandwidth_gbps(depth):.2f}",
            ]
        )
    return format_table(
        ["queue depth", "mean latency (us)", "p99 latency (us)", "bandwidth (GB/s)"], rows
    )


def test_fig02_nvm_device():
    table = run_figure2()
    save_result("fig02_nvm_device", table)
    model = NVMLatencyModel()
    # Shape checks mirroring the paper: latency rises, bandwidth saturates
    # towards the device's ~2.3 GB/s limit.
    assert model.mean_latency_us(8) > model.mean_latency_us(1)
    assert 1.8 < model.bandwidth_gbps(8) <= 2.3
    assert model.bandwidth_gbps(8) > 1.5 * model.bandwidth_gbps(1)
