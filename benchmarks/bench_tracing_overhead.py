"""Tracing-overhead smoke: a disabled tracer must cost (almost) nothing.

:mod:`repro.tracing` instruments every hot serving path — the single-host
batch loop and the cluster fan-out — behind ``if tracer.enabled:`` guards on
the shared :data:`~repro.tracing.NULL_TRACER` singleton.  The contract that
makes tracing safe to ship always-on-able is twofold, and this harness
checks both on the CI-sized ``bench_serving_latency`` configuration (two
tables, a short request stream):

* **Disabled tracing is free.**  The only residual cost on the disabled
  path is the guard itself: one attribute read per instrumentation site.
  The harness counts the run's guard reads with a disabled tracer whose
  ``enabled`` property counts its reads, fences that count at
  ``MAX_GUARDS_PER_REQUEST`` per request (deterministic: a guard moved into
  a per-lookup loop fails here whatever the machine), micro-times one guard
  read net of the empty loop around it, and asserts count × cost stays
  under ``MAX_DISABLED_OVERHEAD`` of the measured run time.  Wall-clock A/B
  timing cannot resolve a sub-percent delta on a seconds-long run in CI
  noise; the count × cost product can.
* **Tracing is observational.**  The enabled run's ``ServingReport`` must
  match the disabled run's field for field (latency percentiles, hit rates,
  queue depths) with only the ``trace`` payload differing — the simulated
  clock never sees the tracer.

The enabled run's wall-clock cost relative to the disabled run is printed
as information (it is dominated by span bookkeeping and is allowed to be
noticeable; nobody enables per-request tracing for free), but only the
disabled-path bound and the report equality are asserted, so the smoke is
CI-stable.  Run directly (``python benchmarks/bench_tracing_overhead.py``);
``--smoke`` is accepted for CI-invocation symmetry and selects the same
configuration.
"""

import _bootstrap  # noqa: F401  (sys.path setup: run benchmarks from the repo root)

import time

from bench_serving_latency import (
    MAX_BATCH,
    MAX_LINGER_US,
    SLO_LATENCY_US,
    TABLES,
    WARMUP_FRACTION,
)
from benchmarks.common import build_store, warm_store
from repro.core.config import ServingConfig, TracingConfig
from repro.serving import simulate_serving
from repro.tracing import NULL_TRACER, NullTracer

#: CI-sized configuration: the bench_serving_latency --smoke shape.
SMOKE_TABLES = TABLES[:2]
NUM_REQUESTS = 200
ARRIVAL_RATE_RPS = 4000.0
#: Asserted ceiling on the disabled-tracer overhead ("under a few percent").
MAX_DISABLED_OVERHEAD = 0.03
#: Fence on ``tracer.enabled`` reads per served request.  The single-host
#: loop reads the guard about once per batch (155 reads for 169 requests on
#: this configuration); 4 leaves room for denser instrumentation and still
#: fails on a guard inside a per-lookup loop.
MAX_GUARDS_PER_REQUEST = 4
TIMING_REPS = 3


class _GuardCountingTracer(NullTracer):
    """The disabled tracer, counting how often its guard is read."""

    def __init__(self) -> None:
        super().__init__()
        self.guard_reads = 0

    @property
    def enabled(self) -> bool:
        self.guard_reads += 1
        return False


def _guard_cost_s(iterations: int = 1_000_000) -> float:
    """Wall-clock cost of one ``tracer.enabled`` guard read, net of its loop.

    Best of ``TIMING_REPS`` for a guarded loop and for the same empty loop;
    the loop alone is a large share of the guarded one.
    """
    tracer = NULL_TRACER
    acc = 0
    guarded_s = empty_s = float("inf")
    for _ in range(TIMING_REPS):
        start = time.perf_counter()
        for _ in range(iterations):
            if tracer.enabled:
                acc += 1
        guarded_s = min(guarded_s, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(iterations):
            pass
        empty_s = min(empty_s, time.perf_counter() - start)
    assert acc == 0, "NULL_TRACER must report enabled=False"
    return max(0.0, guarded_s - empty_s) / iterations


def _timed_run(store, warm_trace, serve_trace, tracing):
    """One warmed serving run; returns (report, wall_seconds)."""
    warm_store(store, warm_trace)
    config = ServingConfig(
        arrival_rate_rps=ARRIVAL_RATE_RPS,
        max_batch_requests=MAX_BATCH,
        max_linger_us=MAX_LINGER_US,
        slo_latency_us=SLO_LATENCY_US,
        seed=13,
    )
    start = time.perf_counter()
    report = simulate_serving(
        store,
        serve_trace,
        config,
        num_requests=NUM_REQUESTS,
        reset_first=False,
        tracing=tracing,
    )
    return report, time.perf_counter() - start


def run_check():
    store, eval_trace = build_store(SMOKE_TABLES, eval_multiplier=1)
    warm_trace, serve_trace = eval_trace.split(WARMUP_FRACTION)

    disabled_s = float("inf")
    disabled_report = None
    for _ in range(TIMING_REPS):
        report, elapsed = _timed_run(store, warm_trace, serve_trace, tracing=None)
        disabled_s = min(disabled_s, elapsed)
        if disabled_report is None:
            disabled_report = report
        elif report.to_dict() != disabled_report.to_dict():
            raise AssertionError("disabled-tracer runs are not deterministic")

    enabled_s = float("inf")
    enabled_report = None
    for _ in range(TIMING_REPS):
        report, elapsed = _timed_run(
            store,
            warm_trace,
            serve_trace,
            tracing=TracingConfig(enabled=True),
        )
        enabled_s = min(enabled_s, elapsed)
        enabled_report = report

    disabled_dict = disabled_report.to_dict()
    enabled_dict = enabled_report.to_dict()
    trace = enabled_dict.pop("trace")
    disabled_dict.pop("trace")
    if enabled_dict != disabled_dict:
        diff = {
            key
            for key in set(enabled_dict) | set(disabled_dict)
            if enabled_dict.get(key) != disabled_dict.get(key)
        }
        raise AssertionError(
            f"tracing changed the report (not observational): {sorted(diff)}"
        )
    counters = trace["counters"]
    served = disabled_dict["num_requests"]
    if counters["requests_started"] != served:
        raise AssertionError(
            f"tracer saw {counters['requests_started']} requests, "
            f"expected {served}"
        )

    counting = _GuardCountingTracer()
    report, _elapsed = _timed_run(store, warm_trace, serve_trace, tracing=counting)
    if report.to_dict() != disabled_report.to_dict():
        raise AssertionError("the guard-counting run differs from the disabled run")
    guards_per_request = counting.guard_reads / served
    guard_s = _guard_cost_s()
    overhead = guard_s * counting.guard_reads / disabled_s
    print(
        f"tracing overhead smoke ({'+'.join(SMOKE_TABLES)}, "
        f"{served} requests at {ARRIVAL_RATE_RPS:.0f} rps)"
    )
    print(
        f"  disabled run: {disabled_s * 1e3:.1f} ms  "
        f"(guard {guard_s * 1e9:.1f} ns x {counting.guard_reads} reads "
        f"-> bound {100 * overhead:.3f}% of run time)"
    )
    print(
        f"  enabled run:  {enabled_s * 1e3:.1f} ms  "
        f"({enabled_s / disabled_s:.2f}x disabled; "
        f"{counters['spans_recorded']} spans over "
        f"{counters['requests_retained']} retained traces)"
    )
    print("  enabled/disabled reports identical outside the trace payload")
    if guards_per_request > MAX_GUARDS_PER_REQUEST:
        raise AssertionError(
            f"{counting.guard_reads} guard reads for {served} requests "
            f"({guards_per_request:.2f}/request) exceed the fence of "
            f"{MAX_GUARDS_PER_REQUEST}/request"
        )
    print(
        f"  guard reads {guards_per_request:.2f}/request "
        f"<= {MAX_GUARDS_PER_REQUEST}/request fence: OK"
    )
    if overhead >= MAX_DISABLED_OVERHEAD:
        raise AssertionError(
            f"disabled-tracer overhead bound {100 * overhead:.2f}% exceeds "
            f"{100 * MAX_DISABLED_OVERHEAD:.0f}%"
        )
    print(
        f"  disabled-tracer overhead bound {100 * overhead:.3f}% "
        f"< {100 * MAX_DISABLED_OVERHEAD:.0f}% ceiling: OK"
    )


if __name__ == "__main__":
    # --smoke accepted for CI symmetry; the harness is already CI-sized.
    run_check()
