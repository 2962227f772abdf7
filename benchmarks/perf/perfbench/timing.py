"""Host-clock measurement: calibrated per-step timing, peak RSS, call counts.

A timed region is a list of *steps*, each one call into a public function.
The box this benchmark was written on is shared, and its speed moves by tens
of per cent over seconds to minutes: over five minutes, the minimum of fifty
0.19 s repeats of identical work read 0.18-0.30 s from one batch of fifty to
the next (interquartile range 28 % of the median), so neither a minimum nor a
median of wall time is steady from one run to the next.  What is steady is
wall time *relative to a fixed piece of work timed in the same instant*.  So
a small reference kernel runs before the first step and after every step; a
step's *ratio* is its wall time over the mean of the two kernel runs around
it; the step's estimate is the median ratio over the repeats; and a region's
reported duration is

    NOMINAL_KERNEL_S x sum over steps of (median over repeats of the ratio),

host seconds on a machine on which the kernel takes ``NOMINAL_KERNEL_S``.
Over the same five minutes that estimate spread 4.8 %; in a second session
2.4-7.6 % on three workloads whose raw minima spread 3-22 %.  Raw minima,
medians and quartiles are kept beside it in the provenance.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: One step: a label and a callable taking and returning the running context.
Step = Tuple[str, Callable[[Any], Any]]

#: What the reference kernel takes on this box when nothing interferes.
NOMINAL_KERNEL_S = 0.008


def reference_kernel() -> int:
    """A fixed few milliseconds of the stack's kind of work: numpy sorting and
    a Python loop over an LRU dictionary.  Nothing in it depends on the repo."""
    ids = (np.arange(60000, dtype=np.int64) * 2654435761) % 65521
    order = np.argsort(ids, kind="stable")
    unique, _ = np.unique(ids, return_counts=True)
    cache: "OrderedDict[int, bool]" = OrderedDict()
    for key in ids[:20000].tolist():
        if key in cache:
            cache.move_to_end(key)
        else:
            cache[key] = True
            if len(cache) > 4096:
                cache.popitem(last=False)
    return int(order[0]) + len(unique) + len(cache)


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


@dataclass
class RegionTiming:
    """All durations of one repeated region, per step and per repeat."""

    step_names: List[str]
    #: Raw wall seconds of each step, one entry per repeat.
    step_seconds: Dict[str, List[float]] = field(default_factory=dict)
    #: The same runs as multiples of the reference kernel timed around them.
    step_ratios: Dict[str, List[float]] = field(default_factory=dict)
    repeat_seconds: List[float] = field(default_factory=list)
    kernel_seconds: List[float] = field(default_factory=list)

    @property
    def repeats(self) -> int:
        return len(self.repeat_seconds)

    @property
    def calibrated_s(self) -> float:
        """Nominal kernel time x sum over steps of the median ratio."""
        return NOMINAL_KERNEL_S * sum(
            statistics.median(self.step_ratios[name]) for name in self.step_names
        )

    @property
    def median_s(self) -> float:
        return statistics.median(self.repeat_seconds)

    @property
    def iqr_s(self) -> float:
        low, high = _quartiles(self.repeat_seconds)
        return high - low

    def provenance(self) -> Dict[str, object]:
        steps = {}
        for name in self.step_names:
            values = self.step_seconds[name]
            low, high = _quartiles(values)
            steps[name] = {
                "calibrated_s": NOMINAL_KERNEL_S * statistics.median(self.step_ratios[name]),
                "min_s": min(values),
                "median_s": statistics.median(values),
                "q1_s": low,
                "q3_s": high,
            }
        return {
            "repeats": self.repeats,
            "calibrated_s": self.calibrated_s,
            "raw_best_s": sum(row["min_s"] for row in steps.values()),
            "raw_median_s": self.median_s,
            "raw_iqr_s": self.iqr_s,
            "kernel_median_s": statistics.median(self.kernel_seconds),
            "steps": steps,
        }


def _timed(function: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def run_steps(
    steps: Sequence[Step], context: Any = None
) -> Tuple[Any, List[float], List[float]]:
    """Run the steps once with the reference kernel around each.

    Returns the final context, each step's wall seconds, and the kernel's
    (one more entry than steps).  The collector is off while the steps run
    (callers collect before), so a collection triggered by an earlier repeat's
    garbage is not billed to whichever step happens to allocate next.
    """
    durations = []
    gc.disable()
    try:
        kernels = [_timed(reference_kernel)[1]]
        for _, function in steps:
            context, seconds = _timed(lambda: function(context))
            durations.append(seconds)
            kernels.append(_timed(reference_kernel)[1])
    finally:
        gc.enable()
    return context, durations, kernels


def calibrated(durations: Sequence[float], kernels: Sequence[float]) -> List[float]:
    """Each step's wall time over the mean of the kernel runs around it."""
    return [
        seconds / ((before + after) / 2.0)
        for seconds, before, after in zip(durations, kernels, kernels[1:])
    ]


def repeat_region(
    steps: Sequence[Step],
    prepare: Callable[[], Any],
    budget_s: float,
    min_repeats: int,
    on_result: Optional[Callable[[Any], None]] = None,
) -> RegionTiming:
    """Repeat ``prepare()`` (untimed) + ``steps`` until the budget is spent.

    At least ``min_repeats`` repeats run whatever the budget says.
    ``on_result`` sees every repeat's final context — the correctness gate
    compares the simulated outputs of all repeats there.
    """
    timing = RegionTiming([name for name, _ in steps])
    for name in timing.step_names:
        timing.step_seconds[name] = []
        timing.step_ratios[name] = []
    deadline = time.perf_counter() + budget_s
    while timing.repeats < min_repeats or time.perf_counter() < deadline:
        context = prepare()
        gc.collect()
        result, durations, kernels = run_steps(steps, context)
        for name, seconds, ratio in zip(
            timing.step_names, durations, calibrated(durations, kernels)
        ):
            timing.step_seconds[name].append(seconds)
            timing.step_ratios[name].append(ratio)
        timing.repeat_seconds.append(sum(durations))
        timing.kernel_seconds.extend(kernels)
        if on_result is not None:
            on_result(result)
    return timing


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_calls(function: Callable[[], Any]) -> Tuple[Any, int]:
    """``function()``'s result and the Python + C calls made while it ran (exact)."""
    calls = [0]

    def profiler(_frame: Any, event: str, _arg: Any) -> None:
        if event == "call" or event == "c_call":
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        result = function()
    finally:
        sys.setprofile(None)
    return result, calls[0]
