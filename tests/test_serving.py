"""Tests for the batch-serving front-end (repro.serving).

Covers the satellite checklist of the serving PR: NVM latency-model
monotonicity under load, the dynamic batcher's linger/size cutoffs, the
front-end's report shape and hostile inputs, and a seeded golden pin of ServingReport
percentiles (the simulated clock is deterministic, so they are bit-stable).
"""

import os
import sys

if __package__ in (None, ""):  # direct script run (golden regeneration)
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
    )

import numpy as np
import pytest

from repro import BandanaConfig, BandanaStore, ServingConfig
from repro.nvm.latency import NVMLatencyModel
from repro.serving import (
    arrival_times,
    form_batches,
    poisson_arrival_times,
    simulate_serving,
)
from repro.simulation import simulate_store
from repro.workloads import (
    SyntheticTraceGenerator,
    paper_shaped_lookups,
    scaled_table_specs,
)
from repro.workloads.trace import ModelTrace


# --------------------------------------------------------------------- helpers
def build_store_and_trace(seed=3, scale=1 / 2000, names=("table1", "table7")):
    specs = scaled_table_specs(scale, names=list(names))
    train, evaluation = {}, {}
    for i, (name, spec) in enumerate(specs.items()):
        lookups = paper_shaped_lookups(spec)
        generator = SyntheticTraceGenerator(spec, seed=10 + i, expected_lookups=lookups)
        train[name] = generator.generate_lookups(2 * lookups)
        evaluation[name] = generator.generate_lookups(lookups)
    store = BandanaStore.build(
        ModelTrace(train),
        BandanaConfig(total_cache_vectors=2000, tune_thresholds=False, seed=seed),
    )
    return store, ModelTrace(evaluation)


# ------------------------------------------------------- latency model feedback
class TestLatencyModelUnderLoad:
    def test_loaded_latency_monotone_in_throughput(self):
        model = NVMLatencyModel()
        capacity = model.bandwidth_gbps(8) * 1000
        sweep = np.linspace(0.0, 1.3, 40) * capacity
        means = [model.loaded_latency(mbps).mean_us for mbps in sweep]
        p99s = [model.loaded_latency(mbps).p99_us for mbps in sweep]
        assert means == sorted(means)
        assert p99s == sorted(p99s)
        assert all(p99 >= mean for mean, p99 in zip(means, p99s))

    def test_application_latency_monotone_in_load_and_waste(self):
        model = NVMLatencyModel()
        # More application throughput at fixed effective bandwidth: no faster.
        lats = [
            model.application_latency(mbps, 0.5).mean_us
            for mbps in (10, 100, 400, 800, 1600)
        ]
        assert lats == sorted(lats)
        # Less effective bandwidth (more wasted device reads) at fixed
        # application throughput: no faster either (Figure 5's argument).
        waste = [
            model.application_latency(60.0, frac).mean_us
            for frac in (1.0, 0.5, 0.25, 0.1, 128 / 4096)
        ]
        assert waste == sorted(waste)

    def test_loaded_latency_accepts_observed_queue_depths(self):
        # The serving loop feeds back *observed* depths, including 0 and
        # fractional values; all must be in-domain after the clamp.
        model = NVMLatencyModel()
        for qd in (0.0, 0.5, 1.0, 7.3, 512.0):
            loaded = model.loaded_latency(100.0, queue_depth=qd)
            assert np.isfinite(loaded.mean_us) and loaded.mean_us > 0


# ------------------------------------------------------------- arrival process
class TestArrivals:
    def test_poisson_rate_and_determinism(self):
        rng = np.random.default_rng(0)
        times = poisson_arrival_times(20000, 1000.0, rng)
        assert times.size == 20000
        assert np.all(np.diff(times) >= 0)
        assert times[-1] == pytest.approx(20.0, rel=0.05)  # ~rate * n
        again = poisson_arrival_times(20000, 1000.0, np.random.default_rng(0))
        np.testing.assert_array_equal(times, again)

    def test_dispatcher_selects_process(self):
        # The one open-loop process: Poisson at the config's rate, drawn
        # from a generator seeded by ``seed``.
        config = ServingConfig(arrival_rate_rps=500.0)
        times = arrival_times(config, 100, seed=7)
        expected = poisson_arrival_times(100, 500.0, np.random.default_rng(7))
        np.testing.assert_array_equal(times, expected)

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
        arrivals = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        batches = form_batches(arrivals, max_batch_requests=4, max_linger_us=100.0)
        assert [(b.start, b.stop) for b in batches] == [(0, 4), (4, 6)]
        assert batches[0].dispatch_us == pytest.approx(3.0)  # arrival of the filling request
        assert batches[1].dispatch_us == pytest.approx(104.0)  # linger from request 4

    def test_linger_cutoff_dispatches_partial_batch_at_deadline(self):
        arrivals = np.array([0.0, 10.0, 500.0])
        batches = form_batches(arrivals, max_batch_requests=8, max_linger_us=50.0)
        assert [(b.start, b.stop) for b in batches] == [(0, 2), (2, 3)]
        assert batches[0].dispatch_us == pytest.approx(50.0)
        assert batches[1].dispatch_us == pytest.approx(550.0)

    def test_arrival_exactly_at_deadline_is_included(self):
        arrivals = np.array([0.0, 50.0, 51.0])
        batches = form_batches(arrivals, max_batch_requests=8, max_linger_us=50.0)
        assert (batches[0].start, batches[0].stop) == (0, 2)

    def test_unbatched_mode_ignores_linger(self):
        arrivals = np.array([0.0, 1.0, 1.0, 2.0])
        batches = form_batches(arrivals, max_batch_requests=1, max_linger_us=1e9)
        assert len(batches) == 4
        assert [b.dispatch_us for b in batches] == [0.0, 1.0, 1.0, 2.0]

    def test_zero_linger_batches_only_simultaneous_arrivals(self):
        arrivals = np.array([0.0, 0.0, 0.0, 5.0])
        batches = form_batches(arrivals, max_batch_requests=8, max_linger_us=0.0)
        assert [(b.start, b.stop) for b in batches] == [(0, 3), (3, 4)]

    def test_dispatch_times_non_decreasing(self):
        rng = np.random.default_rng(5)
        arrivals = np.sort(rng.random(500)) * 1e5
        for max_batch, linger in ((1, 0.0), (4, 30.0), (16, 1000.0)):
            batches = form_batches(arrivals, max_batch, linger)
            dispatches = [b.dispatch_us for b in batches]
            assert dispatches == sorted(dispatches)
            assert sum(b.size for b in batches) == arrivals.size


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

    def test_overload_shows_up_as_queueing_delay_and_slo_misses(self, store_and_trace):
        store, eval_trace = store_and_trace
        config = dict(max_batch_requests=8, max_linger_us=300.0, slo_latency_us=3000.0)
        light = simulate_serving(
            store, eval_trace, ServingConfig(arrival_rate_rps=2000, **config)
        )
        crushed = simulate_serving(
            store, eval_trace, ServingConfig(arrival_rate_rps=2_000_000, **config)
        )
        assert crushed.latency.p99_us > 5 * light.latency.p99_us
        assert crushed.slo_violation_rate > light.slo_violation_rate
        assert crushed.mean_queue_depth >= light.mean_queue_depth
        # Open loop: the overloaded run cannot sustain its offered rate.
        assert crushed.throughput_rps < 0.75 * crushed.offered_rate_rps

    def test_batching_amortises_queueing_at_high_load(self, store_and_trace):
        store, eval_trace = store_and_trace
        rate = 50_000
        unbatched = simulate_serving(
            store, eval_trace, ServingConfig(arrival_rate_rps=rate, max_batch_requests=1)
        )
        batched = simulate_serving(
            store,
            eval_trace,
            ServingConfig(arrival_rate_rps=rate, max_batch_requests=32, max_linger_us=400.0),
        )
        assert batched.mean_batch_size > 2.0
        assert batched.latency.p99_us < unbatched.latency.p99_us

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
        assert payload["steady_state"] is not None

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
        # The simulated clock is deterministic, so one configuration's
        # percentiles are pinned bit-stably (modulo the 6-decimal rounding).
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
        golden = GOLDEN_SERVING_PERCENTILES
        assert round(report.latency.p50_us, 6) == golden["p50_us"]
        assert round(report.latency.p95_us, 6) == golden["p95_us"]
        assert round(report.latency.p99_us, 6) == golden["p99_us"]
        assert round(report.latency.p999_us, 6) == golden["p999_us"]
        assert report.num_batches == golden["num_batches"]
        assert report.blocks_read == golden["blocks_read"]
        assert report.slo_violations == golden["slo_violations"]


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
    "device_mbps_mean",
    "device_mbps_peak",
    "lookups",
    "hit_rate",
    "requests_shed",
    "shed_rate",
    "device_bank",
    "steady_state",
    "trace",
]


#: Frozen output of test_seeded_golden_percentiles's configuration.  These
#: change only when serving semantics change — regenerate deliberately with
#: ``python tests/test_serving.py`` (runs :func:`regenerate_golden`).
GOLDEN_SERVING_PERCENTILES = {
    "p50_us": 278.822174,
    "p95_us": 470.574216,
    "p99_us": 578.914073,
    "p999_us": 580.678834,
    "num_batches": 58,
    "blocks_read": 481,
    "slo_violations": 0,
}


def regenerate_golden():  # pragma: no cover - maintenance helper
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
    print("GOLDEN_SERVING_PERCENTILES = {")
    for key in ("p50_us", "p95_us", "p99_us", "p999_us"):
        print(f'    "{key}": {round(getattr(report.latency, key), 6)!r},')
    print(f'    "num_batches": {report.num_batches},')
    print(f'    "blocks_read": {report.blocks_read},')
    print(f'    "slo_violations": {report.slo_violations},')
    print("}")


if __name__ == "__main__":  # pragma: no cover
    regenerate_golden()
