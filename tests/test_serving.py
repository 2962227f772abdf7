"""Tests for the batch-serving front-end (repro.serving).

Covers the satellite checklist of the serving PR: measured device latency
monotone under load, the dynamic batcher's linger/size cutoffs, the
front-end's report shape and hostile inputs, and a seeded golden pin of ServingReport
percentiles (the simulated clock is deterministic, so they are bit-stable).
"""

import math

import numpy as np
import pytest

from repro import BandanaConfig, BandanaStore, ServingConfig
from repro.device import DEVICE_SLOTS, read_latency_under_load
from repro.nvm.latency import NVMLatencyModel
from repro.serving.arrivals import ArrivalSource, cut_batch
from repro.serving import simulate_serving
from repro.simulation import simulate_store
from repro.workloads import (
    SyntheticTraceGenerator,
    paper_shaped_lookups,
    scaled_table_specs,
)
from repro.workloads.trace import ModelTrace
from tests.conftest import golden


# --------------------------------------------------------------------- helpers
def build_store_and_trace(
    seed=3, scale=1 / 2000, names=("table1", "table7"), eval_multiplier=1
):
    specs = scaled_table_specs(scale, names=list(names))
    train, evaluation = {}, {}
    for i, (name, spec) in enumerate(specs.items()):
        lookups = paper_shaped_lookups(spec)
        generator = SyntheticTraceGenerator(spec, seed=10 + i, expected_lookups=lookups)
        train[name] = generator.generate_lookups(2 * lookups)
        evaluation[name] = generator.generate_lookups(eval_multiplier * lookups)
    store = BandanaStore.build(
        ModelTrace(train),
        BandanaConfig(total_cache_vectors=2000, tune_thresholds=False, seed=seed),
    )
    return store, ModelTrace(evaluation)


def analytic_capacity_rps(store, report):
    """Requests/s the device serves with every slot busy, at ``report``'s cost.

    The device's block rate at :data:`~repro.device.DEVICE_SLOTS` divided by
    the run's NVM block reads per request.
    """
    model = NVMLatencyModel(block_bytes=store.config.block_bytes)
    blocks_per_request = report.blocks_read / report.num_requests
    return model.blocks_per_second(DEVICE_SLOTS) / blocks_per_request


# ------------------------------------------------------- latency under load
class TestLatencyUnderLoad:
    def test_measured_latency_monotone_in_load_and_waste(self):
        # More application throughput at fixed effective bandwidth: no faster.
        lats = [
            read_latency_under_load(mbps / 0.5)[0]
            for mbps in (10, 100, 400, 800, 1600)
        ]
        assert lats == sorted(lats)
        # Less effective bandwidth (more wasted device reads) at fixed
        # application throughput: no faster either (Figure 5's argument).
        waste = [
            read_latency_under_load(60.0 / frac)[0]
            for frac in (1.0, 0.5, 0.25, 0.1, 128 / 4096)
        ]
        assert waste == sorted(waste)


# ------------------------------------------------------------- arrival process
class TestArrivals:
    def test_poisson_rate_and_determinism(self):
        config = ServingConfig(arrival_rate_rps=1000.0)
        times = ArrivalSource(config, 20000, seed=0).pending
        assert len(times) == 20000
        assert times == sorted(times)
        assert times[-1] == pytest.approx(20e6, rel=0.05)  # ~n / rate, in µs
        assert ArrivalSource(config, 20000, seed=0).pending == times

    def test_source_selects_process(self):
        # The one open-loop process: Poisson at the config's rate, drawn
        # from a generator seeded by ``seed``.
        config = ServingConfig(arrival_rate_rps=500.0)
        gaps_s = np.random.default_rng(7).exponential(1.0 / 500.0, 100)
        expected = (np.cumsum(gaps_s) * 1e6).tolist()
        assert ArrivalSource(config, 100, seed=7).pending == expected

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(arrival_rate_rps=0)
        with pytest.raises(ValueError):
            ServingConfig(arrival_process="uniform")
        with pytest.raises(ValueError):
            ServingConfig(arrival_process="mmpp")
        with pytest.raises(ValueError):
            ServingConfig(max_linger_us=-1)


# -------------------------------------------------------------------- batcher
class TestDynamicBatcher:
    def test_size_cutoff_dispatches_on_filling_arrival(self):
        # Six requests in one tight burst, max batch 4: the first batch fills
        # on the 4th arrival and dispatches right then, not at the deadline.
        pending = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert cut_batch(pending, 4, 100.0) == ([0.0, 1.0, 2.0, 3.0], 3.0)
        assert cut_batch(pending, 4, 100.0) == ([4.0, 5.0], 104.0)  # linger from 4.0
        assert pending == []

    def test_linger_cutoff_dispatches_partial_batch_at_deadline(self):
        pending = [0.0, 10.0, 500.0]
        assert cut_batch(pending, 8, 50.0) == ([0.0, 10.0], 50.0)
        assert cut_batch(pending, 8, 50.0) == ([500.0], 550.0)

    def test_arrival_exactly_at_deadline_is_included(self):
        pending = [0.0, 50.0, 51.0]
        assert cut_batch(pending, 8, 50.0) == ([0.0, 50.0], 50.0)

    def test_unbatched_mode_ignores_linger(self):
        pending = [0.0, 1.0, 1.0, 2.0]
        batches = [cut_batch(pending, 1, 1e9) for _ in range(4)]
        assert batches == [([0.0], 0.0), ([1.0], 1.0), ([1.0], 1.0), ([2.0], 2.0)]

    def test_zero_linger_batches_only_simultaneous_arrivals(self):
        pending = [0.0, 0.0, 0.0, 5.0]
        assert cut_batch(pending, 8, 0.0) == ([0.0, 0.0, 0.0], 0.0)
        assert cut_batch(pending, 8, 0.0) == ([5.0], 5.0)

    def test_dispatch_times_non_decreasing(self):
        for max_batch, linger in ((1, 0.0), (4, 30.0), (16, 1000.0)):
            pending = ArrivalSource(ServingConfig(), 500, seed=5).pending
            batches = []
            while pending:
                batches.append(cut_batch(pending, max_batch, linger))
            dispatches = [dispatch for _, dispatch in batches]
            assert dispatches == sorted(dispatches)
            assert sum(len(members) for members, _ in batches) == 500


# ------------------------------------------------------------------ front-end
class TestSimulateServing:
    @pytest.fixture(scope="class")
    def store_and_trace(self):
        return build_store_and_trace()

    def test_counters_identical_to_simulate_store(self, store_and_trace):
        store, eval_trace = store_and_trace
        simulate_serving(
            store,
            eval_trace,
            ServingConfig(arrival_rate_rps=4000, max_batch_requests=8),
        )
        serving_counters = store.aggregate_stats().counters()
        simulate_store(store, eval_trace, include_baseline=False)
        assert store.aggregate_stats().counters() == serving_counters

    #: SLO of the overload test; its run is sized against it.
    OVERLOAD_SLO_US = 3000.0

    @pytest.fixture(scope="class")
    def long_run(self):
        """A store, an evaluation trace, the device's bound on it (rps) and
        the overload test's run length.

        Offered far past the bound, a run drains at the bound, so its last
        request waits about (requests / bound): the run is sized so that
        wait is twice the SLO.  Its head is colder than the whole trace, so
        it costs at least the trace's blocks per request and drains no
        faster.  The bound (:func:`analytic_capacity_rps` over the whole
        trace) grows as a longer trace warms the cache, so the trace is
        lengthened until the run the bound asks for fits in it.
        """
        eval_multiplier = 1
        while True:
            store, eval_trace = build_store_and_trace(eval_multiplier=eval_multiplier)
            probe = simulate_serving(
                store, eval_trace, ServingConfig(arrival_rate_rps=2000)
            )
            bound_rps = analytic_capacity_rps(store, probe)
            num_requests = math.ceil(2 * self.OVERLOAD_SLO_US * 1e-6 * bound_rps)
            if num_requests <= probe.num_requests:
                return store, eval_trace, bound_rps, num_requests
            eval_multiplier = math.ceil(
                eval_multiplier * num_requests / probe.num_requests
            )
            assert eval_multiplier <= 128, "the bound outgrows every trace"

    def test_overload_shows_up_as_queueing_delay_and_slo_misses(self, long_run):
        store, eval_trace, _, num_requests = long_run
        config = dict(
            max_batch_requests=8,
            max_linger_us=300.0,
            slo_latency_us=self.OVERLOAD_SLO_US,
        )
        light = simulate_serving(
            store,
            eval_trace,
            ServingConfig(arrival_rate_rps=2000, **config),
            num_requests=num_requests,
        )
        crushed = simulate_serving(
            store,
            eval_trace,
            ServingConfig(arrival_rate_rps=2_000_000, **config),
            num_requests=num_requests,
        )
        assert crushed.latency.p99_us > 5 * light.latency.p99_us
        assert crushed.slo_violation_rate > light.slo_violation_rate
        assert crushed.mean_queue_depth >= light.mean_queue_depth
        # Open loop: the overloaded run cannot sustain its offered rate.
        assert crushed.throughput_rps < 0.75 * crushed.offered_rate_rps

    def test_unbatched_throughput_tracks_offered_load_up_to_the_bound(self, long_run):
        # Independent requests overlap in the device's slots, so one request
        # per device call still reaches the device's bound: throughput follows
        # the offer until the offer nears the bound.
        store, eval_trace, bound_rps, _ = long_run
        for fraction in (0.25, 0.5, 0.9):
            report = simulate_serving(
                store,
                eval_trace,
                ServingConfig(
                    arrival_rate_rps=fraction * bound_rps, max_batch_requests=1
                ),
            )
            assert report.throughput_rps == pytest.approx(
                report.offered_rate_rps, rel=0.1
            )

    def test_report_shape(self, store_and_trace):
        store, eval_trace = store_and_trace
        report = simulate_serving(
            store, eval_trace, ServingConfig(arrival_rate_rps=4000), num_requests=50
        )
        assert report.num_requests == 50
        assert report.lookups > 0 and 0.0 <= report.hit_rate <= 1.0
        assert sum(report.batch_size_hist.values()) == report.num_batches
        assert sum(report.queue_depth_hist.values()) == report.num_batches
        latency = report.latency
        assert (
            latency.p50_us <= latency.p95_us <= latency.p99_us
            <= latency.p999_us <= latency.max_us
        )
        payload = report.to_dict()
        assert payload["latency"]["p99_us"] == latency.p99_us

    def test_omitted_config_is_the_default_serving_config(self, store_and_trace):
        # The store carries no serving knobs: leaving ``config`` out is
        # exactly ``ServingConfig()``.
        store, eval_trace = store_and_trace
        implicit = simulate_serving(store, eval_trace, num_requests=40)
        explicit = simulate_serving(store, eval_trace, ServingConfig(), num_requests=40)
        assert implicit.to_dict() == explicit.to_dict()

    def test_host_report_keys_are_pinned(self, store_and_trace):
        # The committed host artifacts render these keys in this order; the
        # cluster-only fields (counters, node_blocks_read) stay out of them.
        store, eval_trace = store_and_trace
        report = simulate_serving(store, eval_trace, num_requests=20)
        assert report.counters is None and report.node_blocks_read is None
        assert list(report.to_dict()) == HOST_REPORT_KEYS

    def test_unknown_table_rejected_before_any_lookup(self, store_and_trace):
        # Regression: the known tables used to be served first, so a run
        # counted lookups and then failed with a bare KeyError('ghost').
        store, eval_trace = store_and_trace
        ghost = ModelTrace({**eval_trace.tables, "ghost": eval_trace["table1"]})
        before = store.aggregate_stats().counters()
        with pytest.raises(
            KeyError,
            match=r"unknown table 'ghost'; known tables: \['table1', 'table7'\]",
        ):
            simulate_serving(store, ghost, reset_first=False)
        assert store.aggregate_stats().counters() == before

    def test_negative_num_requests_rejected(self, store_and_trace):
        # Regression: -1 used to slice from the tail (160 of 161 served).
        store, eval_trace = store_and_trace
        with pytest.raises(ValueError, match="num_requests"):
            simulate_serving(store, eval_trace, num_requests=-1)

    def test_zero_requests_is_an_empty_well_formed_report(self, store_and_trace):
        store, eval_trace = store_and_trace
        for process in ("poisson", "closed-loop"):
            report = simulate_serving(
                store,
                eval_trace,
                ServingConfig(arrival_process=process),
                num_requests=0,
            )
            assert report.num_requests == report.num_batches == 0
            assert report.latency.samples == 0
            assert report.throughput_rps == pytest.approx(0.0)
            assert report.to_dict()["queue_depth_hist"] == {}

    def test_seeded_golden_percentiles(self):
        golden("serving_percentiles")


#: ``ServingReport.to_dict()`` keys of a host run, in rendering order.
HOST_REPORT_KEYS = [
    "num_requests",
    "num_batches",
    "offered_rate_rps",
    "throughput_rps",
    "makespan_s",
    "latency",
    "slo_latency_us",
    "slo_violations",
    "slo_violation_rate",
    "mean_batch_size",
    "batch_size_hist",
    "mean_queue_depth",
    "max_queue_depth",
    "queue_depth_hist",
    "blocks_read",
    "lookups",
    "hit_rate",
    "requests_shed",
    "shed_rate",
    "device_bank",
    "trace",
]


def serving_percentiles():
    """One seeded configuration's percentiles (to 6 places), batches, block
    reads and SLO violations.  The simulated clock is deterministic, so they
    change only when serving semantics change."""
    store, eval_trace = build_store_and_trace(seed=3)
    report = simulate_serving(
        store,
        eval_trace,
        ServingConfig(
            arrival_rate_rps=5000.0,
            max_batch_requests=8,
            max_linger_us=300.0,
            seed=11,
        ),
        num_requests=150,
    )
    pin = {
        key: round(getattr(report.latency, key), 6)
        for key in ("p50_us", "p95_us", "p99_us", "p999_us")
    }
    pin.update(
        num_batches=report.num_batches,
        blocks_read=report.blocks_read,
        slo_violations=report.slo_violations,
    )
    return pin
