"""One benchmark run: set-up, host leg, simulated leg, and the traced run.

Two clocks, two estimators.  ``sim_*`` values are pure functions of
(trace, config, seed): one run gives them and every repeat must reproduce
them bit for bit.  ``setup_s`` and ``host_s`` are wall time calibrated against
a reference kernel timed around every step (:mod:`perfbench.timing`).
End-to-end numbers always come from runs with tracing off; the traced run is
separate and only feeds the per-layer metrics.
"""

from __future__ import annotations

import gc
import os
import platform
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from perfbench import checks, layers
from perfbench import timing as timing_module
from perfbench import entrypoints as ep
from perfbench.spans import SpanRecorder
from perfbench.timing import (
    NOMINAL_KERNEL_S,
    RegionTiming,
    calibrated,
    count_calls,
    peak_rss_mb,
    repeat_region,
    run_steps,
)
from perfbench.workloads import WORKLOADS, Sizes, Workload

#: Named layers must account for this share of the traced region's wall time.
MIN_COVERAGE = 0.95
#: The set-up repeats at least ``setup_repeats`` times and for this long, so a
#: set-up of a few hundredths of a second gets enough repeats for a steady median.
SETUP_BUDGET_S = 1.0


@dataclass
class RunResult:
    """What one run measured, ready to print."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    provenance: Dict[str, Any] = field(default_factory=dict)


@contextmanager
def _instrumented(recorder: Optional[SpanRecorder], root: str) -> Iterator[None]:
    """With a recorder: wrappers installed and a root span open; else nothing."""
    if recorder is None:
        yield
        return
    # The reference kernel gets a span of its own, so that its time is not
    # read as the benchmark's glue between steps.
    kernel = ep.WrapPoint(timing_module, "reference_kernel", layers.KERNEL_SPAN)
    with recorder.installed(ep.WRAP_POINTS + [kernel]), recorder.root(root):
        yield


def _set_up(
    workload: Workload, repeats: int, recorder: Optional[SpanRecorder] = None
) -> Tuple[Dict[str, Any], RegionTiming]:
    """Run the set-up at least ``repeats`` times; the inputs must come out identical.

    Each repeat starts by dropping the previous context, so peak memory is
    one set-up's.
    """
    latest: List[Dict[str, Any]] = []
    digests: List[Any] = []

    def on_result(ctx: Dict[str, Any]) -> None:
        digests.append(workload.input_fingerprint(ctx))
        checks.same_fingerprint(digests[0], digests[-1], "set-up inputs")
        latest[:] = [ctx]

    budget_s = SETUP_BUDGET_S if repeats > 1 else 0.0
    with _instrumented(recorder, layers.SETUP_ROOT):
        timing = repeat_region(
            workload.setup_steps(), latest.clear, budget_s, repeats, on_result
        )
    return latest[0], timing


def _host_leg(
    workload: Workload, ctx: Dict[str, Any], budget_s: float, min_repeats: int
) -> Tuple[RegionTiming, Dict[str, Any], Any]:
    """Repeat the timed region for the budget; every repeat must agree."""
    outputs: List[Dict[str, Any]] = []
    reference: List[Any] = []

    def on_result(out: Dict[str, Any]) -> None:
        fingerprint = workload.fingerprint(out)
        if reference:
            checks.same_fingerprint(reference[0], fingerprint, f"{workload.name} repeats")
        else:
            reference.append(fingerprint)
        outputs[:] = [out]

    timing = repeat_region(
        workload.region_steps(ctx),
        lambda: workload.prepare(ctx),
        budget_s,
        min_repeats,
        on_result,
    )
    return timing, outputs[0], reference[0]


def _region_once(
    workload: Workload,
    ctx: Dict[str, Any],
    tracing: Any = None,
    recorder: Optional[SpanRecorder] = None,
) -> Tuple[Dict[str, Any], float]:
    """One run of the region (prepare untimed): its output and calibrated seconds."""
    steps = workload.region_steps(ctx, tracing)
    context = workload.prepare(ctx)
    gc.collect()
    with _instrumented(recorder, layers.REGION_ROOT):
        out, durations, kernels = run_steps(steps, context)
    return out, NOMINAL_KERNEL_S * sum(calibrated(durations, kernels))


def _region_calls(workload: Workload, ctx: Dict[str, Any]) -> int:
    """Python + C calls inside the region's steps (not its preparation)."""
    calls: List[int] = []

    def counted(function: Callable[[Any], Any]) -> Callable[[Any], Any]:
        def step(context: Any) -> Any:
            result, count = count_calls(lambda: function(context))
            calls.append(count)
            return result

        return step

    steps = [(name, counted(function)) for name, function in workload.region_steps(ctx)]
    run_steps(steps, workload.prepare(ctx))
    return sum(calls)


def _median_of(runs: int, run: Callable[[], Tuple[Any, float]]) -> Tuple[Any, float]:
    """Of ``runs`` runs of one instrumented region, the one of median duration."""
    return sorted((run() for _ in range(runs)), key=lambda result: result[1])[runs // 2]


def _traced_leg(
    workload: Workload,
    ctx: Dict[str, Any],
    setup_recorder: SpanRecorder,
    timing: RegionTiming,
    reference: Any,
    instrumented_runs: int,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics from the two instrumented variants of the region."""

    def agrees(out: Dict[str, Any], what: str) -> None:
        checks.same_fingerprint(reference, workload.fingerprint(out), what)

    # Variant 1: the repo's own request tracer on, no wrappers — simulated
    # stage means, trace validity, and what the tracer costs on the host.
    tracer = None
    sim_tracer_share = 0.0
    if workload.devices:

        def run_with_sim_tracer() -> Tuple[Any, float]:
            fresh = ep.Tracer(
                ep.TracingConfig(enabled=True, sample_every=1, max_requests=10**6),
                slo_latency_us=2000.0,
            )
            out, seconds = _region_once(workload, ctx, tracing=fresh)
            agrees(out, "run under the simulated-clock tracer")
            checks.sim_traces_valid(fresh, workload.spans_tile)
            return fresh, seconds

        tracer, traced_s = _median_of(instrumented_runs, run_with_sim_tracer)
        sim_tracer_share = traced_s / timing.calibrated_s - 1.0

    # Variant 2: host-span wrappers on, request tracer off.
    def run_with_wrappers() -> Tuple[Any, float]:
        fresh = SpanRecorder()
        out, seconds = _region_once(workload, ctx, recorder=fresh)
        agrees(out, "run under the host-span wrappers")
        return (fresh, out), seconds

    (region_recorder, out), wrapped_s = _median_of(
        instrumented_runs, run_with_wrappers
    )
    coverage = layers.region_coverage(region_recorder)
    checks.require(
        coverage >= MIN_COVERAGE,
        f"named layers cover {coverage:.3f} of the traced region, need {MIN_COVERAGE}",
    )
    report = workload.serving_report(out)
    makespan_us = report.makespan_s * 1e6 if report is not None else 0.0
    if workload.devices:
        checks.device_busy_within_wall(
            region_recorder.counters.get("device.busy_sim_us", 0.0),
            makespan_us,
            workload.devices,
        )
    metrics = layers.layer_metrics(
        region_recorder,
        setup_recorder,
        workload.layer_facts(out),
        layers.stage_means_us(tracer),
        makespan_us,
        workload.devices,
    )
    metrics["tracing.spans_recorded"] = tracer.spans_recorded if tracer else 0
    metrics["tracing.wrapper_spans"] = len(region_recorder.spans)
    metrics["tracing.sim_tracer_overhead_share"] = sim_tracer_share
    metrics["tracing.wrapper_overhead_share"] = wrapped_s / timing.calibrated_s - 1.0
    metrics["tracing.coverage_share"] = coverage
    metrics["host.pycalls"] = _region_calls(workload, ctx)
    metrics["host.region_median_s"] = timing.median_s
    metrics["host.region_iqr_s"] = timing.iqr_s
    metrics["host.repeats"] = timing.repeats
    return metrics, out


def run_workload(
    name: str,
    seed: int,
    budget_s: float,
    traced: bool,
    sizes: Sizes,
    setup_repeats: int = 3,
    min_repeats: int = 20,
    instrumented_runs: int = 3,
) -> RunResult:
    """Run one workload once and return its metrics (raises ``CheckFailed``).

    The timed region repeats for ``budget_s`` and at least ``min_repeats``
    times; the traced run spends half of both on its untraced baseline.
    """
    workload = WORKLOADS[name](seed, sizes)
    provenance: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "budget_s": budget_s,
        "operations": workload.operations,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if traced:
        setup_recorder = SpanRecorder()
        ctx, setup_timing = _set_up(workload, 1, setup_recorder)
        # Half the repeats: this run also pays for the instrumented variants.
        timing, out, reference = _host_leg(
            workload, ctx, budget_s / 2.0, (min_repeats + 1) // 2
        )
        metrics, out = _traced_leg(
            workload, ctx, setup_recorder, timing, reference, instrumented_runs
        )
        attempted, failed = workload.operations_of(ctx, out)
    else:
        ctx, setup_timing = _set_up(workload, setup_repeats)
        timing, out, _ = _host_leg(workload, ctx, budget_s, min_repeats)
        # Read before the simulated leg, whose untimed runs are the harness's
        # own: the peak is the set-up's and the timed region's.
        metrics = {
            "setup_s": setup_timing.calibrated_s,
            "host_s": timing.calibrated_s,
            "host_peak_rss_mb": peak_rss_mb(),
        }
        leg = workload.sim_leg(ctx, out)
        attempted, failed = leg.operations or workload.operations_of(ctx, out)
        metrics.update(leg.scores)
        provenance["notes"] = leg.notes
        provenance["sim"] = leg.details
    provenance["setup"] = setup_timing.provenance()
    provenance["host"] = timing.provenance()
    provenance["attempted"] = attempted
    provenance["failed"] = failed
    return RunResult(metrics, int(attempted), int(failed), provenance)
