"""Async batch-serving front-end with NVM-aware latency percentiles.

Why this package exists
-----------------------
Bandana (Eisenman et al., MLSYS 2019) justifies every placement and caching
decision by its effect on NVM read load and on the latency the device
delivers *under that load*: Figure 2 measures the device's latency/bandwidth
curve, and Figure 5 shows application latency spiking as the baseline
policy's wasted block reads push the device towards saturation.  The rest of
this repository measures the first half of that argument (hit rates, block
reads, effective bandwidth); this package measures the second half — the
end-to-end request latency a ranking service would observe — making the
"millions of users" serving scenario quantifiable as p50/p95/p99/p999
latency, sustained throughput and SLO violations.

The event-driven model
----------------------
Everything runs on a **simulated clock** — there are no wall-time sleeps, and
a simulation is a deterministic function of (store, trace, config, seed):

* :class:`~repro.serving.arrivals.ArrivalSource` holds the run's pending
  arrivals over the zipped multi-table request stream as one min-heap.  The
  default **open-loop** Poisson process draws them all up front: arrivals
  do not slow down when the store falls behind, so saturation appears as
  growing queueing delay — the behaviour Figure 5 is about — rather than as
  a silently stretched clock.
* :func:`~repro.serving.arrivals.cut_batch` cuts **dynamic batches** off
  that heap under a size cutoff (``max_batch_requests``) and a time cutoff
  (``max_linger_us``); each batch is fanned out to the store in one
  ``lookup_batch`` pass per touched table.
* every batch's demand misses are priced on the host's
  :class:`~repro.device.bank.NVMDeviceBank` (:mod:`repro.device`).  Each device
  is a schedule of submission slots: a read is priced by the unloaded
  Figure-2 law at the **queue depth it observes** and waits for a free slot
  when every slot is busy, so queueing is charged once and per-request
  latency shows the paper's load behaviour, including the blow-up past
  the device's bandwidth.  ``ServingConfig.devices_per_host``
  sizes the bank, with the tables pinned round-robin; a batch serves each
  device it touches once, with the summed misses of that device's tables.
  The default single device is the paper's actual deployment, where
  co-located tables contend for the same hardware; ``devices_per_host =
  number of tables`` is the private-device-per-table counterfactual.
* A **closed-loop** mode (``arrival_process="closed-loop"``) starts the
  heap with one think time per client of a fixed population and pushes
  each client's next arrival when its response comes back, and
  **single-host admission control**
  (``ServingConfig.admission_queue_slack``) sheds requests whose wait for
  a free slot on a table's device exceeds ``slack ×`` the table SLO — both
  measured in the same report (``requests_shed`` / ``shed_rate`` /
  ``device_bank``).
* :mod:`~repro.serving.report` condenses the run into a
  :class:`~repro.serving.report.ServingReport` (latency percentiles,
  throughput, batch-size and queue-depth histograms, SLO violations and the
  device bank's snapshot).

Entry point: :func:`~repro.serving.frontend.simulate_serving`, also exported
as :func:`repro.simulation.simulate_serving` next to ``simulate_store``.  It
runs the one serving event loop
(:func:`~repro.serving.frontend.serve_request_stream`: an arrival source ×
a backend — the host's device bank, or a cluster store), which
:func:`repro.cluster.run_scenario` shares for its measured run; both return
a :class:`~repro.serving.report.ServingReport`, and a cluster run's also
carries the router's ``counters`` and ``node_blocks_read``.  The knobs live
in a :class:`repro.core.config.ServingConfig` passed to
:func:`simulate_serving` (its defaults when omitted).
``benchmarks/bench_serving_latency.py`` sweeps arrival rates up to device
saturation, batched vs unbatched.

Tracing
-------
Pass ``tracing=TracingConfig(enabled=True)`` and every request's latency
decomposes into spans on the same simulated clock — ``batcher.queue``
(arrival → batch dispatch: queue wait plus linger), ``device.queue``
(dispatch → first read's start, the wait for a free slot),
``device.service`` (the batch's NVM reads) and ``overhead`` — which tile the end-to-end latency *exactly*.  The report
then carries a JSON summary (per-stage breakdown, top-K slowest requests
with critical paths) in ``ServingReport.trace``; see :mod:`repro.tracing`
for the query API and a worked "why did p999 regress" example.  A disabled
tracer (the default) is a no-op singleton behind one branch per site —
behavior is bit-identical either way.
"""

from repro.serving.frontend import simulate_serving

__all__ = [
    "simulate_serving",
]
