"""Latency and bandwidth model of a block-addressable NVM device.

The paper measures a 375 GB NVM device with ``fio`` (Figure 2): 4 KB random
reads deliver roughly 10 µs mean latency at queue depth 1, rising with queue
depth, with P99 around 25–80 µs, while bandwidth grows from ~0.4 GB/s towards
~2.3 GB/s and then saturates.

``NVMLatencyModel`` states that curve once, as one unloaded law for the mean
read latency at queue depth ``q``::

    L(q) = hypot(base_latency_us, q · block_bytes / max_bandwidth)

— the isolated-read latency at low depth, the transfer time of ``q`` blocks
at the saturated bandwidth at high depth.  The bandwidth panel is *derived*
from it by Little's law: a device with ``q`` reads in flight completes
``q / L(q)`` reads per µs, so ``bandwidth_gbps(q) = q · block_bytes / L(q)``,
which climbs to ``max_bandwidth_gbps`` without reaching it.  With the paper's
constants this gives 10.2 µs / 0.40 GB/s at depth 1, 17.4 µs / 1.88 GB/s at
depth 8 and 114 µs / 2.29 GB/s at depth 64.

The model is unloaded only.  Queueing under load (Figure 5) is not a formula
here: it comes out of the device's submission-slot schedule
(:class:`repro.device.DeviceClock`), which prices each read with this law at
the depth it observes, and :func:`repro.device.read_latency_under_load`
measures the loaded curve from that schedule.

Queue depths in ``[0, 1)`` behave as depth 1 — a device serving anything has
at least the one read in flight; negative or non-finite depths are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

from repro.utils.validation import (
    AtLeast,
    NonNegative,
    Positive,
    check_non_negative,
    validate_fields,
)

#: Queue depth at which the store's offline replay accounting prices a block
#: read (``mean_latency_us(QUEUE_DEPTH)``), and at which a cluster node's
#: engines price theirs.
QUEUE_DEPTH = 8.0


@dataclass(frozen=True)
class NVMLatencyModel:
    """One unloaded law for the device of the paper's Figure 2.

    Attributes
    ----------
    block_bytes:
        Size of one device block (4 KB in the paper).
    max_bandwidth_gbps:
        Saturated random-read bandwidth in GB/s (2.3 in the paper), the
        asymptote of :meth:`bandwidth_gbps`.
    base_latency_us:
        Mean latency of an isolated read, the asymptote of
        :meth:`mean_latency_us` at low depth.
    p99_multiplier:
        Ratio of P99 to mean latency at queue depth 1.
    p99_depth_multiplier:
        Additional P99 amplification per unit of queue depth (tail grows
        faster than the mean, as in Figure 2a).
    """

    block_bytes: Annotated[int, AtLeast(1)] = 4096
    max_bandwidth_gbps: Annotated[float, Positive] = 2.3
    base_latency_us: Annotated[float, Positive] = 10.0
    p99_multiplier: Annotated[float, Positive] = 2.5
    p99_depth_multiplier: Annotated[float, NonNegative] = 0.6

    def __post_init__(self) -> None:
        validate_fields(self)

    @staticmethod
    def _clamp_depth(queue_depth: float) -> float:
        """Clamp queue depths in ``[0, 1)`` to 1 (see the module docstring)."""
        check_non_negative(queue_depth, "queue_depth")
        return max(float(queue_depth), 1.0)

    def mean_latency_us(self, queue_depth: float) -> float:
        """Mean read latency (µs) at the given queue depth, unloaded."""
        queue_depth = self._clamp_depth(queue_depth)
        # bytes / (GB/s · 1e3) == µs
        transfer_us = queue_depth * self.block_bytes / (self.max_bandwidth_gbps * 1e3)
        return math.hypot(self.base_latency_us, transfer_us)

    def bandwidth_gbps(self, queue_depth: float) -> float:
        """Random-read bandwidth (GB/s) at the given queue depth: Little's law."""
        queue_depth = self._clamp_depth(queue_depth)
        return queue_depth * self.block_bytes / self.mean_latency_us(queue_depth) / 1e3

    def p99_latency_us(self, queue_depth: float) -> float:
        """P99 read latency (µs) at the given queue depth, unloaded."""
        queue_depth = self._clamp_depth(queue_depth)
        multiplier = self.p99_multiplier + self.p99_depth_multiplier * (queue_depth - 1.0)
        return self.mean_latency_us(queue_depth) * multiplier

    def blocks_per_second(self, queue_depth: float) -> float:
        """Device block-read rate at the given queue depth."""
        return self.bandwidth_gbps(queue_depth) * 1e9 / self.block_bytes
