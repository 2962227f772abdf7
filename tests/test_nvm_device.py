"""Tests for the NVM latency model, endurance tracker and DRAM model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import read_latency_under_load
from repro.nvm.dram import DRAMModel
from repro.nvm.endurance import EnduranceTracker
from repro.nvm.latency import NVMLatencyModel


class TestLatencyModel:
    def test_bandwidth_increases_with_queue_depth(self):
        model = NVMLatencyModel()
        bandwidths = [model.bandwidth_gbps(qd) for qd in (1, 2, 4, 8)]
        assert all(b2 > b1 for b1, b2 in zip(bandwidths, bandwidths[1:]))
        assert bandwidths[-1] < model.max_bandwidth_gbps

    def test_latency_increases_with_queue_depth(self):
        model = NVMLatencyModel()
        assert model.mean_latency_us(8) > model.mean_latency_us(1)
        assert model.p99_latency_us(8) > model.mean_latency_us(8)

    def test_paper_figure2_magnitudes(self):
        # Figure 2: ~2.3 GB/s saturated bandwidth, ~10 µs unloaded latency.
        model = NVMLatencyModel()
        assert 1.5 < model.bandwidth_gbps(8) < 2.3
        assert 5 < model.mean_latency_us(1) < 20

    @settings(max_examples=200, deadline=None)
    @given(
        queue_depth=st.floats(0.0, 1024.0),
        block_bytes=st.integers(1, 1 << 16),
        max_bandwidth_gbps=st.floats(0.01, 100.0),
        base_latency_us=st.floats(0.01, 1000.0),
    )
    def test_bandwidth_is_littles_law_of_latency(
        self, queue_depth, block_bytes, max_bandwidth_gbps, base_latency_us
    ):
        # One law: q reads in flight for L(q) µs each complete q / L(q) reads
        # per µs, which is the bandwidth panel (depths below 1 act as 1).
        model = NVMLatencyModel(
            block_bytes=block_bytes,
            max_bandwidth_gbps=max_bandwidth_gbps,
            base_latency_us=base_latency_us,
        )
        depth = max(queue_depth, 1.0)
        reads_per_us = depth / model.mean_latency_us(queue_depth)
        assert reads_per_us * block_bytes / 1e3 == pytest.approx(
            model.bandwidth_gbps(queue_depth), rel=1e-12
        )
        assert model.bandwidth_gbps(queue_depth) <= max_bandwidth_gbps

    def test_loaded_latency_spikes_near_saturation(self):
        # Figure 5 as an output of the device's slot schedule.
        capacity_mbps = NVMLatencyModel().bandwidth_gbps(64) * 1000
        low, _ = read_latency_under_load(0.1 * capacity_mbps)
        high, _ = read_latency_under_load(0.97 * capacity_mbps)
        saturated, _ = read_latency_under_load(1.5 * capacity_mbps)
        assert high > 2 * low
        assert saturated > high

    def test_baseline_vs_full_effective_bw_under_load(self):
        # Figure 5: at the same application throughput, the 3% effective
        # bandwidth baseline saturates while 100% effective bandwidth is fine.
        app_mbps = 200.0
        baseline, _ = read_latency_under_load(app_mbps / (128 / 4096))
        full, _ = read_latency_under_load(app_mbps)
        assert baseline > 5 * full

    def test_invalid_inputs(self):
        model = NVMLatencyModel()
        with pytest.raises(ValueError):
            model.bandwidth_gbps(-1)
        with pytest.raises(ValueError):
            model.mean_latency_us(float("nan"))
        with pytest.raises(ValueError):
            read_latency_under_load(-1)
        with pytest.raises(ValueError):
            read_latency_under_load(0.0)
        with pytest.raises(ValueError, match="block_bytes"):
            NVMLatencyModel(block_bytes=0)

    @pytest.mark.parametrize(
        "value, error",
        [(float("nan"), ValueError), (float("inf"), ValueError), (True, TypeError)],
    )
    def test_read_latency_under_load_rejects_hostile_inputs(self, value, error):
        # A device_mbps of True used to offer 1 MB/s of load.
        with pytest.raises(error, match="device_mbps"):
            read_latency_under_load(value)

    def test_queue_depth_below_one_clamps_to_one(self):
        # An idle closed-loop observer legitimately reports queue depth 0;
        # the model treats anything in [0, 1) as depth 1.
        model = NVMLatencyModel()
        for qd in (0, 0.25):
            assert model.bandwidth_gbps(qd) == model.bandwidth_gbps(1)
            assert model.mean_latency_us(qd) == model.mean_latency_us(1)
            assert model.p99_latency_us(qd) == model.p99_latency_us(1)

    def test_loaded_latency_monotone_through_saturation(self):
        model = NVMLatencyModel()
        capacity_mbps = model.bandwidth_gbps(64) * 1000
        sweep = [
            read_latency_under_load(u * capacity_mbps)
            for u in (0.01, 0.5, 0.9, 0.99, 1.0, 2.0)
        ]
        means = [mean for mean, _ in sweep]
        assert means == sorted(means)
        assert all(p99 >= mean for mean, p99 in sweep)
        # Lightly loaded, a read costs about one unloaded read.
        assert means[0] < 1.1 * model.mean_latency_us(1)

    def test_blocks_per_second(self):
        model = NVMLatencyModel()
        assert model.blocks_per_second(8) == pytest.approx(
            model.bandwidth_gbps(8) * 1e9 / 4096
        )

    @pytest.mark.parametrize("block_bytes", [4096.5, True])
    def test_block_bytes_must_be_an_integer(self, block_bytes):
        # Checked as a positive number, 4096.5 and True used to construct and
        # then price a fractional (or one-byte) block in blocks_per_second.
        with pytest.raises(TypeError, match="block_bytes"):
            NVMLatencyModel(block_bytes=block_bytes)


class TestEnduranceTracker:
    def test_dwpd_accounting(self):
        tracker = EnduranceTracker(capacity_bytes=1000, dwpd_limit=30)
        tracker.record_write(15_000)   # 15 device writes
        tracker.advance_time(1.0)
        assert tracker.device_writes == pytest.approx(15.0)
        assert tracker.drive_writes_per_day == pytest.approx(15.0)
        assert tracker.within_budget
        assert tracker.headroom() == pytest.approx(15.0)

    def test_budget_violation(self):
        tracker = EnduranceTracker(capacity_bytes=1000, dwpd_limit=10)
        tracker.record_write(20_000)
        tracker.advance_time(1.0)
        assert not tracker.within_budget

    def test_no_time_means_no_violation(self):
        tracker = EnduranceTracker(capacity_bytes=1000)
        tracker.record_write(10**9)
        assert tracker.drive_writes_per_day == pytest.approx(0.0)
        assert tracker.within_budget

    def test_reset(self):
        tracker = EnduranceTracker(capacity_bytes=1000)
        tracker.record_write(500)
        tracker.advance_time(2)
        tracker.reset()
        assert tracker.bytes_written == 0 and tracker.elapsed_days == 0

    def test_paper_retraining_rate_within_endurance(self):
        # The paper: tables are rewritten 10-20 times/day, device allows 30.
        tracker = EnduranceTracker(capacity_bytes=375 * 10**9, dwpd_limit=30)
        tracker.record_write(20 * 375 * 10**9)
        tracker.advance_time(1.0)
        assert tracker.within_budget


class TestDRAMModel:
    def test_cost_monotone_in_dram(self):
        dram = DRAMModel()
        assert dram.cost(2 * 1024**3) > dram.cost(1024**3)

    def test_bandana_saves_cost(self):
        dram = DRAMModel()
        total = 100 * 1024**3
        saving = dram.savings_vs_all_dram(total, dram_cache_bytes=total // 20)
        assert 0.5 < saving < 1.0

    def test_cache_larger_than_total_rejected(self):
        dram = DRAMModel()
        with pytest.raises(ValueError):
            dram.savings_vs_all_dram(10, 20)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            DRAMModel().cost(-1)
