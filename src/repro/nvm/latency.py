"""Latency and bandwidth model of a block-addressable NVM device.

The paper measures a 375 GB NVM device with ``fio`` (Figure 2): 4 KB random
reads deliver roughly 10 µs mean latency at queue depth 1 rising to ~25 µs at
queue depth 8, with P99 around 25–80 µs, while bandwidth grows from ~0.4 GB/s
to ~2.3 GB/s and then saturates.  Figure 5 shows the loaded behaviour: as the
application approaches the device's effective bandwidth, mean and P99 latency
spike.

``NVMLatencyModel`` reproduces both behaviours with a small closed-form model:

* unloaded service time grows linearly with queue depth (device-internal
  queueing),
* bandwidth follows a saturating curve ``B_max * qd / (qd + k)``,
* loaded latency follows an M/M/1-style ``1 / (1 - utilisation)`` blow-up with
  a configurable knee, which is all Figure 5 needs.

The constants default to the paper's measurements and are all overridable (each
within its declared range), so benchmarks can model faster or slower devices.

Domain clamping
---------------
Closed-loop callers (the serving front-end in :mod:`repro.serving` feeds
*observed* queue depths and throughputs back into this model) can legitimately
produce boundary values an ``fio`` sweep never would: a momentarily idle
device observes queue depth 0, and an overloaded one offers more throughput
than the device can absorb.  The model therefore clamps instead of raising at
both edges:

* queue depths in ``[0, 1)`` behave as depth 1 — the device always has at
  least the one read being served in flight; negative or non-finite depths
  remain errors,
* utilisation at or beyond 1 returns the saturation ceiling
  (``saturation_ceiling`` × the unloaded latency), and the pre-saturation
  blow-up is capped at that same ceiling, so loaded latency is monotone
  non-decreasing in offered throughput with no discontinuity at saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from repro.utils.validation import (
    AtLeast,
    Fraction,
    NonNegative,
    Positive,
    check_fraction,
    check_non_negative,
    check_positive,
    validate_fields,
)

#: Queue depth at which the store's replay accounting prices a block read
#: (``mean_latency_us(QUEUE_DEPTH)``) and the serving report reads the
#: Fig. 5 law.
QUEUE_DEPTH = 8.0


@dataclass(frozen=True)
class LoadedLatency:
    """Mean and P99 latency (in microseconds) of the device under load."""

    mean_us: float
    p99_us: float


@dataclass(frozen=True)
class NVMLatencyModel:
    """Analytic latency/bandwidth model calibrated to the paper's Figure 2.

    Attributes
    ----------
    block_bytes:
        Size of one device block (4 KB in the paper).
    max_bandwidth_gbps:
        Saturated random-read bandwidth in GB/s (2.3 in the paper).
    bandwidth_half_depth:
        Queue depth at which bandwidth reaches half of the saturated value.
    base_latency_us:
        Mean latency of an isolated 4 KB read at queue depth 1.
    latency_per_depth_us:
        Additional mean latency per unit of queue depth beyond 1.
    p99_multiplier:
        Ratio of P99 to mean latency when unloaded.
    p99_depth_multiplier:
        Additional P99 amplification per unit of queue depth (tail grows
        faster than the mean, as in Figure 2a).
    saturation_knee:
        Utilisation at which loaded latency starts to climb steeply (Fig. 5).
    saturation_ceiling:
        Multiple of the unloaded latency reported at (and clamped to near)
        full utilisation; keeps load sweeps finite and monotone.
    """

    block_bytes: Annotated[int, AtLeast(1)] = 4096
    max_bandwidth_gbps: Annotated[float, Positive] = 2.3
    bandwidth_half_depth: Annotated[float, Positive] = 1.0
    base_latency_us: Annotated[float, Positive] = 10.0
    latency_per_depth_us: Annotated[float, NonNegative] = 2.0
    p99_multiplier: Annotated[float, Positive] = 2.5
    p99_depth_multiplier: Annotated[float, NonNegative] = 0.6
    saturation_knee: Annotated[float, Fraction] = 0.85
    saturation_ceiling: Annotated[float, AtLeast(1.0)] = 100.0

    def __post_init__(self) -> None:
        validate_fields(self)

    @staticmethod
    def _clamp_depth(queue_depth: float) -> float:
        """Clamp queue depths in ``[0, 1)`` to 1 (see "Domain clamping")."""
        check_non_negative(queue_depth, "queue_depth")
        return max(float(queue_depth), 1.0)

    # ------------------------------------------------------- unloaded (Fig 2)
    def bandwidth_gbps(self, queue_depth: float) -> float:
        """Random-read bandwidth (GB/s) at the given queue depth."""
        queue_depth = self._clamp_depth(queue_depth)
        return self.max_bandwidth_gbps * queue_depth / (
            queue_depth + self.bandwidth_half_depth
        )

    def mean_latency_us(self, queue_depth: float) -> float:
        """Mean 4 KB read latency (µs) at the given queue depth, unloaded."""
        queue_depth = self._clamp_depth(queue_depth)
        return self.base_latency_us + self.latency_per_depth_us * (queue_depth - 1.0)

    def p99_latency_us(self, queue_depth: float) -> float:
        """P99 4 KB read latency (µs) at the given queue depth, unloaded."""
        queue_depth = self._clamp_depth(queue_depth)
        multiplier = self.p99_multiplier + self.p99_depth_multiplier * (queue_depth - 1.0)
        return self.mean_latency_us(queue_depth) * multiplier

    # --------------------------------------------------------- loaded (Fig 5)
    def loaded_latency(
        self,
        device_throughput_mbps: float,
        queue_depth: float = QUEUE_DEPTH,
    ) -> LoadedLatency:
        """Latency when the device serves ``device_throughput_mbps`` of block reads.

        ``device_throughput_mbps`` is the rate of bytes physically read from
        the device (block reads × block size), *not* the application-useful
        bytes.  As it approaches the device's saturated bandwidth, latency
        rises sharply; at and beyond saturation the model returns the
        ``saturation_ceiling`` multiple of the unloaded latency rather than
        raising, and the pre-saturation blow-up is capped at that same
        ceiling, so the result is monotone non-decreasing in throughput
        (closed-loop callers rely on this — see "Domain clamping" above).
        """
        if device_throughput_mbps < 0:
            raise ValueError("device_throughput_mbps must be >= 0")
        capacity_mbps = self.bandwidth_gbps(queue_depth) * 1000.0
        utilisation = device_throughput_mbps / capacity_mbps
        base_mean = self.mean_latency_us(queue_depth)
        base_p99 = self.p99_latency_us(queue_depth)
        if utilisation >= 1.0:
            inflation = self.saturation_ceiling
        elif utilisation <= self.saturation_knee:
            # Piecewise queueing blow-up: gentle before the knee, 1/(1-u) after.
            inflation = 1.0 + utilisation / (1.0 - self.saturation_knee) * 0.25
        else:
            inflation = (1.0 - self.saturation_knee * 0.25) / (1.0 - utilisation)
        inflation = min(max(inflation, 1.0), self.saturation_ceiling)
        return LoadedLatency(mean_us=base_mean * inflation, p99_us=base_p99 * inflation)

    def application_latency(
        self,
        app_throughput_mbps: float,
        effective_bandwidth_fraction: float,
        queue_depth: float = QUEUE_DEPTH,
    ) -> LoadedLatency:
        """Latency seen by an application with a given *effective bandwidth*.

        The paper defines effective bandwidth as the fraction of the bytes
        read from NVM that the application actually uses.  The baseline policy
        uses 128 B of every 4 KB block, i.e. ~3 % effective bandwidth, so the
        device saturates at a tiny application throughput (Figure 5).
        """
        check_fraction(effective_bandwidth_fraction, "effective_bandwidth_fraction")
        check_positive(effective_bandwidth_fraction, "effective_bandwidth_fraction")
        device_mbps = app_throughput_mbps / effective_bandwidth_fraction
        return self.loaded_latency(device_mbps, queue_depth=queue_depth)

    # ----------------------------------------------------------------- helper
    def blocks_per_second(self, queue_depth: float) -> float:
        """Device block-read rate at the given queue depth."""
        return self.bandwidth_gbps(queue_depth) * 1e9 / self.block_bytes
