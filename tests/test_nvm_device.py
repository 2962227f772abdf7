"""Tests for the NVM latency model, endurance tracker and DRAM model."""

import pytest

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

    def test_loaded_latency_spikes_near_saturation(self):
        model = NVMLatencyModel()
        capacity = model.bandwidth_gbps(8) * 1000
        low = model.loaded_latency(0.1 * capacity)
        high = model.loaded_latency(0.97 * capacity)
        saturated = model.loaded_latency(1.5 * capacity)
        assert high.mean_us > 2 * low.mean_us
        assert saturated.mean_us > high.mean_us

    def test_application_latency_baseline_vs_full_effective_bw(self):
        # Figure 5: at the same application throughput, the 3% effective
        # bandwidth baseline saturates while 100% effective bandwidth is fine.
        model = NVMLatencyModel()
        app_mbps = 200.0
        baseline = model.application_latency(app_mbps, 128 / 4096)
        full = model.application_latency(app_mbps, 1.0)
        assert baseline.mean_us > 5 * full.mean_us

    def test_invalid_inputs(self):
        model = NVMLatencyModel()
        with pytest.raises(ValueError):
            model.bandwidth_gbps(-1)
        with pytest.raises(ValueError):
            model.mean_latency_us(float("nan"))
        with pytest.raises(ValueError):
            model.loaded_latency(-1)
        with pytest.raises(ValueError):
            model.application_latency(100, 0.0)

    def test_queue_depth_below_one_clamps_to_one(self):
        # An idle closed-loop observer legitimately reports queue depth 0;
        # the model treats anything in [0, 1) as depth 1.
        model = NVMLatencyModel()
        for qd in (0, 0.25):
            assert model.bandwidth_gbps(qd) == model.bandwidth_gbps(1)
            assert model.mean_latency_us(qd) == model.mean_latency_us(1)
            assert model.p99_latency_us(qd) == model.p99_latency_us(1)

    def test_loaded_latency_clamped_and_monotone_through_saturation(self):
        model = NVMLatencyModel()
        capacity = model.bandwidth_gbps(8) * 1000
        ceiling = model.mean_latency_us(8) * model.saturation_ceiling
        sweep = [model.loaded_latency(u * capacity) for u in
                 (0.0, 0.5, 0.9, 0.99, 0.9999, 1.0, 2.0)]
        means = [lat.mean_us for lat in sweep]
        assert means == sorted(means)
        assert all(m <= ceiling for m in means)
        assert means[-1] == means[-2] == ceiling

    def test_blocks_per_second(self):
        model = NVMLatencyModel()
        assert model.blocks_per_second(8) == pytest.approx(
            model.bandwidth_gbps(8) * 1e9 / 4096
        )


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
