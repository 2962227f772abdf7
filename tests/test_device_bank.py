"""Tests for the shared NVM device layer (repro.device) and its clients.

Covers DeviceClock's slot schedule and pricing, its hostile-input errors and
conservation invariants (busy time — time with a read in flight — ≤ wall
time × K, depth histograms sum to serve counts), the
bank's table→device mapping, the one device-charge rule (a batch serves
each device it touches once; it equals the whole-batch and per-table
charges it replaced at K = 1 and K = number of tables, against the oracle
``_lookup_and_charge_reference``), private devices vs cross-table
contention under a genuinely shared device, closed-loop arrival properties
(hard concurrency cap, think-time stationarity, determinism), and
single-host admission control (per-table SLOs included).
"""

import os
import sys

if __package__ in (None, ""):  # direct script run
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
    )

import functools
from collections import Counter

import numpy as np
import pytest

from repro import ServingConfig
from repro.core.config import TracingConfig
from repro.device import DEVICE_SLOTS, DeviceClock, NVMDeviceBank, depth_bucket
from repro.nvm.latency import NVMLatencyModel
from repro.serving import ClosedLoopPopulation, frontend, simulate_serving
from repro.serving.arrivals import arrival_times
from repro.tracing import (
    ATTR_PARALLEL,
    STAGE_DEVICE_SERVICE,
    STAGE_REQUEST_SHED,
    Tracer,
    validate_trace,
)
from repro.utils.rng import ensure_rng
from test_serving import build_store_and_trace
from tests.conftest import count_python_calls

#: Python-level calls per ``DeviceClock.serve_blocks``, whatever its read
#: count.  Measured 4: itself, the record, ``_finish`` and ``depth_bucket``
#: (well-typed arguments skip the checks' frames).  The slack absorbs a
#: garbage-collector finalizer that happens to run inside the count.
SERVE_BLOCKS_CALL_BUDGET = 4.5


# ------------------------------------------------------------------ DeviceClock
class TestDeviceClock:
    def make_clock(self):
        return DeviceClock(NVMLatencyModel())

    def test_isolated_call_on_an_idle_device_costs_one_unloaded_read(self):
        # Up to DEVICE_SLOTS reads run side by side, each at L(b).
        model = NVMLatencyModel()
        for reads in (1, 8, DEVICE_SLOTS):
            record = self.make_clock().serve_blocks(100.0, reads)
            assert record.start_us == record.dispatch_us == pytest.approx(100.0)
            assert record.completion_us == pytest.approx(
                100.0 + model.mean_latency_us(reads)
            )
            assert record.queue_depth == reads

    def test_calls_that_fit_in_the_slots_overlap(self):
        clock = self.make_clock()
        first = clock.serve_blocks(0.0, 24)
        second = clock.serve_blocks(1.0, 24)  # 24 slots still busy, 40 free
        assert second.start_us == second.dispatch_us  # no wait for a slot
        assert second.start_us < first.completion_us
        assert second.queue_depth == 48
        # Busy time is one interval from 0, not the two calls' sum.
        assert clock.busy_us == pytest.approx(second.completion_us)

    def test_reads_beyond_the_slots_wait_for_the_earliest_free_slot(self):
        model = NVMLatencyModel()
        clock = self.make_clock()
        first = clock.serve_blocks(0.0, 40)
        second = clock.serve_blocks(1.0, 24)  # takes the last 24 free slots
        third = clock.serve_blocks(2.0, 8)  # every slot busy
        assert third.start_us == first.completion_us
        assert third.queue_wait_us == pytest.approx(first.completion_us - 2.0)
        assert third.completion_us == pytest.approx(
            first.completion_us + model.mean_latency_us(DEVICE_SLOTS)
        )
        assert second.start_us == pytest.approx(1.0)

    def test_one_call_beyond_the_slots_runs_in_rounds(self):
        model = NVMLatencyModel()
        record = self.make_clock().serve_blocks(0.0, 2 * DEVICE_SLOTS + 1)
        read_us = model.mean_latency_us(DEVICE_SLOTS)
        assert record.read_latency_us == read_us
        assert record.completion_us == pytest.approx(3 * read_us)  # a slot runs three

    def test_idle_device_serves_immediately(self):
        clock = self.make_clock()
        record = clock.serve_blocks(0.0, 8)
        late = clock.serve_blocks(record.completion_us + 100.0, 8)
        assert late.start_us == late.dispatch_us
        assert late.queue_wait_us == pytest.approx(0.0)

    def test_zero_reads_do_not_occupy_the_device(self):
        clock = self.make_clock()
        record = clock.serve_blocks(0.0, 0)
        assert record.completion_us == record.dispatch_us
        assert clock.free_at_us == pytest.approx(0.0)
        assert clock.busy_us == pytest.approx(0.0)
        # The serve is still observed (depth histogram, serve count).
        assert clock.serves == 1

    def test_backlog_raises_observed_queue_depth_and_latency(self):
        lone = self.make_clock().serve_blocks(0.0, 8)
        backlogged = self.make_clock()
        backlogged.serve_blocks(0.0, 48)
        piled = backlogged.serve_blocks(1.0, 8)  # 48 reads still in flight
        assert piled.queue_depth > lone.queue_depth
        assert piled.read_latency_us > lone.read_latency_us

    def test_negative_reads_rejected(self):
        with pytest.raises(ValueError):
            self.make_clock().serve_blocks(0.0, -1)
        # A negative table count used to be summed away with its neighbours'.
        bank = NVMDeviceBank(num_devices=1, latency_model=NVMLatencyModel())
        with pytest.raises(ValueError, match="block_reads"):
            bank.serve_blocks(0.0, {"a": -1, "b": 5})

    @pytest.mark.parametrize("reads", [2.5, True, 3.0])
    def test_non_integer_reads_rejected(self, reads):
        # 2.5 used to be priced as 2.5 reads and True as one read.
        clock = self.make_clock()
        with pytest.raises(TypeError, match="block_reads"):
            clock.serve_blocks(0.0, reads)
        with pytest.raises(TypeError, match="block_reads"):
            clock.serve_duration(0.0, 1.0, block_reads=reads)
        bank = NVMDeviceBank(num_devices=1, latency_model=NVMLatencyModel())
        with pytest.raises(TypeError, match="block_reads"):
            bank.serve_blocks(0.0, {"a": reads})
        assert clock.serves == 0 and bank.devices[0].serves == 0

    @pytest.mark.parametrize("when", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_times_rejected(self, when):
        # A NaN or inf dispatch used to return a NaN or inf completion.
        clock = self.make_clock()
        with pytest.raises(ValueError, match="dispatch_us"):
            clock.serve_blocks(when, 4)
        with pytest.raises(ValueError, match="arrive_us"):
            clock.serve_duration(when, 1.0)
        with pytest.raises(ValueError, match="service_us"):
            clock.serve_duration(0.0, when)
        assert clock.serves == 0 and clock.free_at_us == pytest.approx(0.0)

    def test_out_of_order_dispatch_rejected(self):
        # Busy time assumes non-decreasing dispatches; an earlier one used to
        # be served and miscount it.
        clock = self.make_clock()
        clock.serve_blocks(100.0, 4)
        busy_us = clock.busy_us
        with pytest.raises(ValueError, match="dispatch_us"):
            clock.serve_blocks(50.0, 4)
        assert clock.serves == 1 and clock.busy_us == busy_us
        clock.serve_blocks(100.0, 4)  # equal dispatches are in order

    def test_rebase_re_anchors_the_dispatch_order(self):
        clock = self.make_clock()
        clock.serve_blocks(100.0, 4)
        clock.rebase(10.0)
        with pytest.raises(ValueError, match="dispatch_us"):
            clock.serve_blocks(5.0, 4)
        assert clock.serve_blocks(10.0, 4).queue_wait_us == pytest.approx(0.0)

    def test_serve_blocks_requires_a_latency_model(self):
        clock = DeviceClock(None)
        with pytest.raises(ValueError):
            clock.serve_blocks(0.0, 4)

    def test_serve_duration_fifo_and_validation(self):
        clock = DeviceClock(None)
        first = clock.serve_duration(0.0, 50.0)
        assert (first.start_us, first.completion_us) == (0.0, 50.0)
        queued = clock.serve_duration(10.0, 5.0)
        assert queued.start_us == pytest.approx(50.0)
        assert queued.completion_us == pytest.approx(55.0)
        # Out-of-order arrivals (retries/hedges) are allowed.
        early = clock.serve_duration(5.0, 1.0)
        assert early.start_us == pytest.approx(55.0)
        assert clock.busy_us == pytest.approx(56.0)
        with pytest.raises(ValueError):
            clock.serve_duration(0.0, -1.0)

    def test_serve_duration_waits_for_every_slot(self):
        model = NVMLatencyModel()
        clock = DeviceClock(model)
        clock.serve_blocks(0.0, 1)
        held = clock.serve_duration(0.0, 10.0)
        # One slot was busy: externally-priced work waits for it, then holds all.
        assert held.start_us == pytest.approx(model.mean_latency_us(1))
        assert clock.queue_wait_us(0.0) == held.completion_us

    def test_rebase_clears_backlog_but_keeps_aggregates(self):
        clock = self.make_clock()
        clock.serve_blocks(0.0, 64)
        clock.serve_blocks(0.0, 64)
        serves, busy = clock.serves, clock.busy_us
        assert clock.free_at_us > 0.0
        clock.rebase(0.0)
        assert clock.free_at_us == pytest.approx(0.0)
        assert clock.serves == serves
        assert clock.busy_us == busy
        assert sum(clock.depth_hist.values()) == serves
        fresh = clock.serve_blocks(0.0, 8)
        assert fresh.queue_wait_us == pytest.approx(0.0)

    @pytest.mark.parametrize("reads", [0, 1, 64, 1000])
    def test_serve_blocks_python_calls_do_not_grow_with_reads(self, reads):
        # The slot schedule is a few NumPy operations per call: a Python frame
        # per read (a heap push, a per-slot loop) would scale with ``reads``.
        clock = self.make_clock()
        clock.serve_blocks(0.0, 40)
        serves = 100

        def serve():
            for i in range(serves):
                clock.serve_blocks(1.0 + i, reads)

        _, calls = count_python_calls(serve)
        per_serve = (calls - 1) / serves  # less the ``serve`` frame
        assert per_serve <= SERVE_BLOCKS_CALL_BUDGET, (
            f"{per_serve:.2f} Python calls per serve_blocks of {reads} reads "
            f"(budget {SERVE_BLOCKS_CALL_BUDGET})"
        )

    def test_depth_bucket_edges(self):
        assert depth_bucket(0.0) == 0
        assert depth_bucket(1.0) == 1
        assert depth_bucket(2.0) == 2
        assert depth_bucket(3.0) == 4
        assert depth_bucket(64.0) == 64


def reference_slot_schedule(model, calls):
    """The slot schedule one read at a time, with every read's interval kept.

    ``calls`` are ``("blocks", dispatch_us, reads)`` or ``("duration",
    arrive_us, service_us)`` with non-decreasing times.  A ``blocks`` call
    prices its reads at ``L(min(reads in flight at dispatch + reads,
    DEVICE_SLOTS))`` and puts read ``j`` on the ``(j mod DEVICE_SLOTS)``-th
    earliest slot at dispatch, back to back after that slot's earlier reads;
    a ``duration`` call waits for every slot and holds them all.  Returns
    one ``(start, completion, depth, read_us)`` per call and the busy time,
    the length of the union of every read's interval.
    """
    slots = [0.0] * DEVICE_SLOTS
    intervals, records = [], []
    for kind, at_us, amount in calls:
        if kind == "duration":
            start_us = max(max(slots), at_us)
            slots = [start_us + amount] * DEVICE_SLOTS
            intervals.append((start_us, start_us + amount))
            records.append((start_us, start_us + amount, None, 0.0))
            continue
        in_flight = sum(free_us > at_us for free_us in slots)
        if amount == 0:
            records.append((at_us, at_us, in_flight, 0.0))
            continue
        depth = min(in_flight + amount, DEVICE_SLOTS)
        read_us = model.mean_latency_us(depth)
        order = sorted(range(DEVICE_SLOTS), key=lambda k: slots[k])
        starts, ends = [], []
        for j in range(amount):
            slot = order[j % DEVICE_SLOTS]
            start_us = max(slots[slot], at_us)
            slots[slot] = start_us + read_us
            intervals.append((start_us, slots[slot]))
            starts.append(start_us)
            ends.append(slots[slot])
        records.append((min(starts), max(ends), depth, read_us))
    busy_us, covered_to = 0.0, 0.0
    for start_us, end_us in sorted(intervals):
        if end_us > covered_to:
            busy_us += end_us - max(start_us, covered_to)
            covered_to = end_us
    return records, busy_us


class TestSlotScheduleMatchesReadByReadReference:
    """The vectorised schedule equals the same rule applied read by read."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_calls(self, seed):
        rng = ensure_rng(seed)
        model = NVMLatencyModel()
        calls, at_us = [], 0.0
        for _ in range(60):
            at_us += float(rng.exponential(20.0))
            if rng.random() < 0.1:
                calls.append(("duration", at_us, float(rng.uniform(0.0, 200.0))))
            else:
                calls.append(("blocks", at_us, int(rng.integers(0, 150))))
        clock = DeviceClock(model)
        records = [
            clock.serve_blocks(at, amount)
            if kind == "blocks"
            else clock.serve_duration(at, amount)
            for kind, at, amount in calls
        ]
        expected, busy_us = reference_slot_schedule(model, calls)
        for record, (start_us, completion_us, depth, read_us) in zip(records, expected):
            assert record.start_us == pytest.approx(start_us, rel=1e-9)
            assert record.completion_us == pytest.approx(completion_us, rel=1e-9)
            assert record.read_latency_us == pytest.approx(read_us, rel=1e-12)
            if depth is not None:
                assert record.queue_depth == depth
        assert clock.busy_us == pytest.approx(busy_us, rel=1e-9)
        assert clock.busy_us <= clock.free_at_us + 1e-6
        assert clock.blocks_issued == sum(
            amount for kind, _, amount in calls if kind == "blocks"
        )


# ---------------------------------------------------------------- NVMDeviceBank
def check_bank_conservation(snapshot):
    """The bank's conservation laws, checked on any ``snapshot()``.

    Busy time counts time with at least one read in flight, so per-device
    busy time is at most the wall time (≤ wall × K over the bank), and every
    serve call lands in exactly one queue-depth bucket.
    """
    per_device = snapshot["per_device"]
    assert len(per_device) == snapshot["num_devices"]
    wall_us = max(device["free_at_us"] for device in per_device)  # clock starts at 0
    assert wall_us > 0.0
    for device in per_device:
        assert device["busy_us"] <= wall_us + 1e-6
        assert sum(device["depth_hist"].values()) == device["serves"]
    total_busy_us = sum(device["busy_us"] for device in per_device)
    assert total_busy_us <= wall_us * len(per_device) + 1e-6


class TestNVMDeviceBank:
    def test_round_robin_mapping_is_idempotent(self):
        bank = NVMDeviceBank(num_devices=2, latency_model=NVMLatencyModel())
        assert bank.map_table("a") == 0
        assert bank.map_table("b") == 1
        assert bank.map_table("c") == 0
        assert bank.map_table("a") == 0  # unchanged on re-pin
        assert bank.table_mapping() == {"a": 0, "b": 1, "c": 0}

    def test_single_device_shares_all_tables(self):
        bank = NVMDeviceBank(
            num_devices=1, latency_model=NVMLatencyModel(), tables=("a", "b", "c")
        )
        assert set(bank.table_mapping().values()) == {0}
        (first,) = bank.serve_blocks(0.0, {"a": 32})
        (second,) = bank.serve_blocks(0.0, {"b": 32})
        # Cross-table contention: the tables share one device's slots.  Table
        # b's reads take the 32 slots table a left free, at the depth both
        # tables' reads make; table c then finds every slot busy.
        assert second.start_us == pytest.approx(0.0)
        assert second.queue_depth == first.queue_depth + 32 == DEVICE_SLOTS
        (third,) = bank.serve_blocks(0.0, {"c": 1})
        assert third.start_us == first.completion_us

    def test_private_devices_do_not_contend(self):
        bank = NVMDeviceBank(
            num_devices=2, latency_model=NVMLatencyModel(), tables=("a", "b")
        )
        first, second = bank.serve_blocks(0.0, {"a": 32, "b": 32})
        assert second.start_us == pytest.approx(0.0)
        assert second.device_index != first.device_index
        assert first.queue_wait_us == second.queue_wait_us == pytest.approx(0.0)

    def test_busy_time_conservation(self):
        rng = ensure_rng(5)
        num_devices = 3
        bank = NVMDeviceBank(num_devices=num_devices, latency_model=NVMLatencyModel())
        tables = [f"t{i}" for i in range(7)]
        dispatch_us = 0.0
        for _ in range(200):
            dispatch_us += float(rng.exponential(30.0))
            bank.serve_blocks(
                dispatch_us, {str(rng.choice(tables)): int(rng.integers(0, 48))}
            )
        check_bank_conservation(bank.snapshot())
        assert bank.total_busy_us() <= bank.free_at_us * num_devices + 1e-6

    def test_depth_histograms_sum_to_serve_counts(self):
        rng = ensure_rng(6)
        bank = NVMDeviceBank(num_devices=2, latency_model=NVMLatencyModel())
        dispatch_us = 0.0
        for i in range(120):
            dispatch_us += float(rng.exponential(20.0))
            bank.serve_blocks(dispatch_us, {f"t{i % 5}": int(rng.integers(0, 32))})
        check_bank_conservation(bank.snapshot())
        for device in bank.devices:
            assert sum(device.depth_hist.values()) == device.serves
        assert sum(d.serves for d in bank.devices) == 120

    def test_queue_wait_per_table_and_bankwide(self):
        bank = NVMDeviceBank(
            num_devices=2, latency_model=NVMLatencyModel(), tables=("a", "b")
        )
        (record,) = bank.serve_blocks(0.0, {"a": 64})
        assert bank.queue_wait_us(0.0, "a") == record.completion_us
        assert bank.queue_wait_us(0.0, "b") == pytest.approx(0.0)
        assert bank.queue_wait_us(0.0) == record.completion_us  # max over bank

    def test_snapshot_shape(self):
        bank = NVMDeviceBank(
            num_devices=2, latency_model=NVMLatencyModel(), tables=("a", "b")
        )
        bank.serve_blocks(0.0, {"a": 16})
        snap = bank.snapshot()
        assert snap["num_devices"] == 2
        assert snap["table_mapping"] == {"a": 0, "b": 1}
        per_device = snap["per_device"]
        assert len(per_device) == 2
        assert per_device[0]["serves"] == 1
        assert per_device[0]["blocks_issued"] == 16
        assert all(isinstance(k, str) for k in per_device[0]["depth_hist"])

    def test_charge_sums_tables_per_device(self):
        # Three tables on two devices: a and c share device 0.
        bank = NVMDeviceBank(
            num_devices=2, latency_model=NVMLatencyModel(), tables=("a", "b", "c")
        )
        records = bank.serve_blocks(0.0, {"a": 5, "b": 7, "c": 3})
        assert [(r.device_index, r.block_reads) for r in records] == [(0, 8), (1, 7)]
        assert [device.serves for device in bank.devices] == [1, 1]
        # Device 0 prices the sum once, exactly like a lone device given 8.
        lone = DeviceClock(NVMLatencyModel()).serve_blocks(0.0, 8)
        assert records[0] == lone

    def test_touched_device_is_served_even_without_reads(self):
        bank = NVMDeviceBank(
            num_devices=2, latency_model=NVMLatencyModel(), tables=("a", "b")
        )
        (record,) = bank.serve_blocks(0.0, {"b": 0})
        assert (record.device_index, record.block_reads) == (1, 0)
        assert [device.serves for device in bank.devices] == [0, 1]
        assert bank.serve_blocks(0.0, {}) == []

    def test_dispatch_order_is_kept_per_device(self):
        bank = NVMDeviceBank(
            num_devices=2, latency_model=NVMLatencyModel(), tables=("a", "b")
        )
        bank.serve_blocks(100.0, {"a": 4})
        (record,) = bank.serve_blocks(50.0, {"b": 4})  # b's device is fresh
        assert record.device_index == 1
        with pytest.raises(ValueError, match="dispatch_us"):
            bank.serve_blocks(50.0, {"a": 4})

    def test_rebase_re_anchors_every_device(self):
        bank = NVMDeviceBank(num_devices=2)
        bank.serve_duration("a", 0.0, 100.0)
        assert bank.free_at_us == pytest.approx(100.0)
        bank.rebase(7.0)
        assert all(device.free_at_us == pytest.approx(7.0) for device in bank.devices)


# ------------------------------------------------------- the device-charge rule
@pytest.fixture(scope="module")
def store_and_trace():
    return build_store_and_trace()


def serve(store_and_trace, config, **kwargs):
    store, eval_trace = store_and_trace
    return simulate_serving(store, eval_trace, config=config, **kwargs)


def _lookup_and_charge_reference(
    store, requests, served, dispatch_us, bank, split_tables
):
    """The two charging branches the one rule replaced (test oracle).

    ``split_tables=True`` charged each table's miss delta to that table's
    device, one serve per table; ``False`` charged the batch's total misses
    to device 0 — the original whole-batch accountant.
    """
    per_table = {}
    for i in served:
        for name, ids in requests[i].items():
            per_table.setdefault(name, []).append(ids)
    misses = {}
    for name, queries in per_table.items():
        misses_before = store.tables[name].stats.misses
        store.lookup_batch(name, queries, gather=False)
        misses[name] = store.tables[name].stats.misses - misses_before
    records = []
    if split_tables:
        records = [
            bank.device_of(name).serve_blocks(dispatch_us, delta)
            for name, delta in misses.items()
        ]
    elif misses:
        records = [bank.devices[0].serve_blocks(dispatch_us, sum(misses.values()))]
    completion_us = max((r.completion_us for r in records), default=dispatch_us)
    return completion_us, records


def traced_run(store_and_trace, config):
    """One fully traced run: (report dict, every retained span)."""
    tracer = Tracer(TracingConfig(enabled=True, sample_every=1, max_requests=100000))
    report = serve(store_and_trace, config, tracing=tracer)
    spans = {rid: trace.spans for rid, trace in tracer.traces.items()}
    return report.to_dict(), spans


#: "overload-shed" is ``TestAdmissionControl.OVERLOAD``, which sheds at
#: both K; at 8k rps and K = 2 requests carry two parallel device spans.
ORACLE_CASES = {
    "poisson-2k": dict(arrival_rate_rps=2000.0),
    "poisson-8k": dict(arrival_rate_rps=8000.0),
    "poisson-30k": dict(arrival_rate_rps=30000.0),
    "poisson-30k-shed": dict(arrival_rate_rps=30000.0, admission_queue_slack=0.5),
    "overload-shed": dict(arrival_rate_rps=400000.0, admission_queue_slack=0.1),
    "closed-loop": dict(
        arrival_process="closed-loop", closed_loop_clients=8, closed_loop_think_s=0.0005
    ),
}


class TestChargeRuleMatchesOracle:
    """The one rule ≡ the branch it replaced, at both ends of K.

    K = 1 is the whole-batch branch; K = number of tables (two here) is the
    per-table branch.  Reports (bank snapshot included) and every traced
    span must match bit for bit.
    """

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("devices", [1, 2])
    def test_rule_equals_reference_branch(
        self, store_and_trace, monkeypatch, case, seed, devices
    ):
        config = ServingConfig(seed=seed, devices_per_host=devices, **ORACLE_CASES[case])
        rule = traced_run(store_and_trace, config)
        monkeypatch.setattr(
            frontend,
            "_lookup_and_charge",
            functools.partial(_lookup_and_charge_reference, split_tables=devices > 1),
        )
        reference = traced_run(store_and_trace, config)
        assert rule == reference
        assert rule[0]["num_requests"] == len(rule[1])


class TestChargeRule:
    def test_default_config_is_a_one_device_bank(self, store_and_trace):
        report = serve(store_and_trace, ServingConfig(seed=3))
        assert report.requests_shed == 0
        bank = report.device_bank
        assert bank["num_devices"] == 1
        assert set(bank["table_mapping"].values()) == {0}
        check_bank_conservation(bank)
        # One device: one serve call per dispatched batch, its whole misses.
        device = bank["per_device"][0]
        assert device["serves"] == report.num_batches
        assert device["blocks_issued"] == report.blocks_read

    def test_enough_devices_give_every_table_a_device(self, store_and_trace):
        report = serve(store_and_trace, ServingConfig(seed=3, devices_per_host=2))
        bank = report.device_bank
        assert bank is not None
        assert bank["num_devices"] == 2
        assert sorted(bank["table_mapping"].values()) == [0, 1]
        check_bank_conservation(bank)

    def test_three_tables_on_two_devices_serve_each_device_once(self):
        names = ("table1", "table2", "table4")
        store, eval_trace = build_store_and_trace(names=names)
        serves = []
        original = DeviceClock.serve_blocks

        def logged(clock, dispatch_us, block_reads):
            serves.append((dispatch_us, clock.index))
            return original(clock, dispatch_us, block_reads)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DeviceClock, "serve_blocks", logged)
            report = simulate_serving(
                store,
                eval_trace,
                config=ServingConfig(
                    seed=3,
                    arrival_rate_rps=8000.0,
                    max_batch_requests=4,
                    devices_per_host=2,
                ),
                # Only requests that read all three tables.
                num_requests=min(len(t) for t in eval_trace.tables.values()),
            )
        bank = report.device_bank
        assert bank["table_mapping"] == {"table1": 0, "table2": 1, "table4": 0}
        # Every batch touches both devices — and serves each exactly once,
        # not once per table.
        assert report.num_batches > 10
        assert [d["serves"] for d in bank["per_device"]] == [report.num_batches] * 2
        assert [index for _, index in serves] == [0, 1] * report.num_batches
        assert [t for t, _ in serves[0::2]] == [t for t, _ in serves[1::2]]
        assert sum(d["blocks_issued"] for d in bank["per_device"]) == report.blocks_read
        check_bank_conservation(bank)

    def test_queue_depth_hist_sums_the_devices(self, store_and_trace):
        report = serve(
            store_and_trace,
            ServingConfig(seed=3, arrival_rate_rps=30000.0, devices_per_host=2),
        )
        per_device = Counter()
        for device in report.device_bank["per_device"]:
            per_device.update({int(k): v for k, v in device["depth_hist"].items()})
        assert report.queue_depth_hist == dict(per_device)
        assert list(report.queue_depth_hist) == sorted(report.queue_depth_hist)

    def test_extra_devices_idle_on_single_table_store(self):
        store, eval_trace = build_store_and_trace(names=("table1",))
        one = simulate_serving(store, eval_trace, config=ServingConfig(seed=3))
        two = simulate_serving(
            store, eval_trace, config=ServingConfig(seed=3, devices_per_host=2)
        )
        # One table is pinned to device 0; device 1 never serves.
        assert two.latency == one.latency
        assert two.blocks_read == one.blocks_read
        assert two.queue_depth_hist == one.queue_depth_hist
        assert two.device_bank["per_device"][1]["serves"] == 0

    def test_shared_device_creates_cross_table_contention(self, store_and_trace):
        # At 30k rps the two tables' reads visibly queue on one device.
        private = serve(
            store_and_trace,
            ServingConfig(seed=3, arrival_rate_rps=30000.0, devices_per_host=2),
        )
        shared = serve(
            store_and_trace,
            ServingConfig(seed=3, arrival_rate_rps=30000.0, devices_per_host=1),
        )
        # Both tables' reads serialise on the one physical device: the tail
        # pays for the other table's queue, which a private device per
        # table (devices_per_host = number of tables) cannot produce.
        assert shared.latency.p999_us > private.latency.p999_us
        assert shared.latency.mean_us > private.latency.mean_us
        assert shared.blocks_read == private.blocks_read  # same cache work

    def test_multi_device_trace_validates_with_parallel_device_spans(
        self, store_and_trace
    ):
        tracer = Tracer(TracingConfig(enabled=True, sample_every=1))
        report = serve(
            store_and_trace,
            ServingConfig(seed=3, arrival_rate_rps=8000.0, devices_per_host=2),
            tracing=tracer,
        )
        assert report.num_requests == len(tracer.traces)
        saw_parallel_pair = False
        for trace in tracer.traces.values():
            assert validate_trace(trace) == []
            service = [s for s in trace.spans if s.name == STAGE_DEVICE_SERVICE]
            if len(service) > 1:
                assert {s.attributes["device"] for s in service} == {0, 1}
                assert all(s.attributes[ATTR_PARALLEL] for s in service)
                saw_parallel_pair = True
        assert saw_parallel_pair


# ------------------------------------------------------------------ closed loop
class TestClosedLoopArrivals:
    def test_arrival_times_refuses_closed_loop(self):
        config = ServingConfig(arrival_process="closed-loop")
        with pytest.raises(ValueError):
            arrival_times(config, 10, seed=1)

    def test_population_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopPopulation(0, 0.01, ensure_rng(1))
        with pytest.raises(ValueError):
            ClosedLoopPopulation(4, 0.0, ensure_rng(1))

    def test_nominal_rate(self):
        population = ClosedLoopPopulation(32, 0.016, ensure_rng(1))
        assert population.nominal_rate_rps == pytest.approx(2000.0)

    def test_think_time_stationarity(self):
        # The think-time distribution does not drift with simulated time:
        # draws conditioned on late completions have the same mean as the
        # initial draws (both are the same exponential).
        population = ClosedLoopPopulation(4, 0.01, ensure_rng(42))
        initial = np.array([population.initial_arrival_us() for _ in range(20000)])
        late = np.array(
            [population.next_arrival_us(1e9) - 1e9 for _ in range(20000)]
        )
        assert initial.mean() == pytest.approx(population.think_mean_us, rel=0.05)
        assert late.mean() == pytest.approx(population.think_mean_us, rel=0.05)
        assert np.all(late > 0.0)

    def test_closed_loop_run_is_deterministic(self, store_and_trace):
        config = ServingConfig(
            arrival_process="closed-loop",
            seed=3,
            closed_loop_clients=8,
            closed_loop_think_s=0.004,
        )
        first = serve(store_and_trace, config)
        second = serve(store_and_trace, config)
        assert first.latency == second.latency
        assert first.num_batches == second.num_batches
        assert first.blocks_read == second.blocks_read

    def test_concurrency_never_exceeds_population(self, store_and_trace):
        clients = 6
        tracer = Tracer(TracingConfig(enabled=True, sample_every=1))
        report = serve(
            store_and_trace,
            ServingConfig(
                arrival_process="closed-loop",
                seed=3,
                closed_loop_clients=clients,
                closed_loop_think_s=0.0002,  # think ≪ service: saturate
            ),
            tracing=tracer,
        )
        assert report.num_requests == len(tracer.traces)
        # Sweep the in-flight intervals: at no simulated instant are more
        # than `clients` requests between arrival and response.
        events = []
        for trace in tracer.traces.values():
            events.append((trace.arrival_us, 1))
            events.append((trace.completion_us, -1))
        events.sort()
        in_flight = peak = 0
        for _, delta in events:
            in_flight += delta
            peak = max(peak, in_flight)
        assert 0 < peak <= clients

    def test_closed_loop_throughput_bounded_by_nominal_rate(self, store_and_trace):
        report = serve(
            store_and_trace,
            ServingConfig(
                arrival_process="closed-loop",
                seed=3,
                closed_loop_clients=8,
                closed_loop_think_s=0.004,
            ),
        )
        # A closed loop cannot serve faster than its clients offer.
        assert report.throughput_rps <= report.offered_rate_rps
        assert report.offered_rate_rps == pytest.approx(8 / 0.004)

    def test_closed_loop_traces_validate(self, store_and_trace):
        tracer = Tracer(TracingConfig(enabled=True, sample_every=1))
        serve(
            store_and_trace,
            ServingConfig(
                arrival_process="closed-loop",
                seed=3,
                closed_loop_clients=8,
                closed_loop_think_s=0.001,
                devices_per_host=2,
            ),
            tracing=tracer,
        )
        for trace in tracer.traces.values():
            assert validate_trace(trace) == []


# ------------------------------------------------------------ admission control
class TestAdmissionControl:
    OVERLOAD = dict(seed=3, arrival_rate_rps=400000.0, admission_queue_slack=0.1)

    def test_shedding_disabled_by_default(self, store_and_trace):
        report = serve(store_and_trace, ServingConfig(seed=3, arrival_rate_rps=400000.0))
        assert report.requests_shed == 0
        assert report.shed_rate == pytest.approx(0.0)

    def test_overload_sheds_and_counts(self, store_and_trace):
        report = serve(store_and_trace, ServingConfig(**self.OVERLOAD))
        assert 0 < report.requests_shed < report.num_requests
        assert report.shed_rate == pytest.approx(
            report.requests_shed / report.num_requests
        )

    def test_shed_requests_do_no_cache_work(self, store_and_trace):
        full = serve(store_and_trace, ServingConfig(seed=3, arrival_rate_rps=400000.0))
        shed = serve(store_and_trace, ServingConfig(**self.OVERLOAD))
        assert shed.lookups < full.lookups
        assert shed.blocks_read < full.blocks_read

    def test_shedding_improves_served_tail(self, store_and_trace):
        full = serve(store_and_trace, ServingConfig(seed=3, arrival_rate_rps=400000.0))
        shed = serve(store_and_trace, ServingConfig(**self.OVERLOAD))
        # Shed rejections return fast and the surviving queue is shorter.
        assert shed.latency.p999_us < full.latency.p999_us

    def test_shed_traces_are_degraded_with_marker_span(self, store_and_trace):
        tracer = Tracer(TracingConfig(enabled=True, sample_every=1))
        report = serve(store_and_trace, ServingConfig(**self.OVERLOAD), tracing=tracer)
        shed_traces = [t for t in tracer.traces.values() if t.degraded]
        assert len(shed_traces) == report.requests_shed
        for trace in shed_traces:
            assert validate_trace(trace) == []
            assert any(s.name == STAGE_REQUEST_SHED for s in trace.spans)

    def test_multi_device_bank_sheds_per_table(self, store_and_trace):
        report = serve(
            store_and_trace, ServingConfig(devices_per_host=2, **self.OVERLOAD)
        )
        assert report.requests_shed > 0
        assert report.device_bank is not None



# ---------------------------------------------------------------------- config
class TestDevicesPerHost:
    def test_default_is_one_shared_device(self):
        assert ServingConfig().devices_per_host == 1

    @pytest.mark.parametrize("value, error", [(0, ValueError), (1.5, TypeError), (True, TypeError)])
    def test_validation(self, value, error):
        with pytest.raises(error, match="devices_per_host"):
            ServingConfig(devices_per_host=value)

    def test_other_serving_knobs_and_old_field(self):
        with pytest.raises(ValueError):
            ServingConfig(closed_loop_clients=0)
        with pytest.raises(ValueError):
            ServingConfig(closed_loop_think_s=0.0)
        with pytest.raises(ValueError):
            ServingConfig(admission_queue_slack=-1.0)
        # The accounting-mode field is gone; one charge rule remains.  So is
        # the per-table SLO: every table sheds against slo_latency_us.
        with pytest.raises(TypeError):
            ServingConfig(device="shared")  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            ServingConfig(table_slo_us=(("t", 1.0),))  # type: ignore[call-arg]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
