"""The metrics sink of the serving front-end.

:class:`ServingReport` condenses one serving simulation into the quantities
the paper argues about: end-to-end request latency percentiles (p50/p95/p99/
p999), sustained throughput, SLO violations, the batcher's behaviour (batch
size histogram), and the device-side story (queue-depth histogram, block
reads, measured throughput).  ``to_dict`` renders everything JSON-ready for
the benchmark artifacts.  Both serving tiers report through it: a cluster
run (:func:`repro.cluster.run_scenario`) fills the two cluster-only fields,
``counters`` and ``node_blocks_read``, and leaves the host's device fields
empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np


if TYPE_CHECKING:  # repro.cluster imports this package; import only for types
    from repro.cluster.store import ClusterCounters

#: Percentiles reported for request latency.
LATENCY_PERCENTILES = (50.0, 95.0, 99.0, 99.9)

#: Summary field per reported percentile, in :data:`LATENCY_PERCENTILES` order.
_PERCENTILE_FIELDS = ("p50_us", "p95_us", "p99_us", "p999_us")


def percentile_min_samples(percentile: float) -> int:
    """Samples needed before ``percentile`` is a measurement, not a guess.

    The rank of the p-th percentile needs at least ``100 / (100 - p)``
    samples for one sample to sit *above* it — below that, interpolation
    just quotes the max (p999 from 200 samples is the slowest request, not
    a tail estimate).
    """
    if not 0.0 <= percentile < 100.0:
        raise ValueError(f"percentile must be in [0, 100), got {percentile}")
    # Round before ceiling: 100 - 99.9 carries float noise (0.09999...),
    # and ceil would otherwise inflate p999's rank from 1000 to 1001.
    return int(np.ceil(round(100.0 / (100.0 - percentile), 6)))


@dataclass(frozen=True)
class LatencySummary:
    """Request-latency distribution summary, in microseconds.

    ``samples`` is the number of latency samples behind the percentiles;
    consumers should check :meth:`unsupported_percentiles` before quoting
    tails (the benchmarks flag them in their artifacts).
    """

    p50_us: float
    p95_us: float
    p99_us: float
    p999_us: float
    mean_us: float
    max_us: float
    samples: int = 0

    @classmethod
    def from_samples(cls, latencies_us: np.ndarray) -> "LatencySummary":
        latencies_us = np.asarray(latencies_us, dtype=np.float64)
        if latencies_us.size == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, samples=0)
        p50, p95, p99, p999 = np.percentile(latencies_us, LATENCY_PERCENTILES)
        return cls(
            p50_us=float(p50),
            p95_us=float(p95),
            p99_us=float(p99),
            p999_us=float(p999),
            mean_us=float(latencies_us.mean()),
            max_us=float(latencies_us.max()),
            samples=int(latencies_us.size),
        )

    def unsupported_percentiles(self) -> List[str]:
        """Summary fields whose percentile rank exceeds the sample count."""
        return [
            name
            for name, percentile in zip(_PERCENTILE_FIELDS, LATENCY_PERCENTILES)
            if self.samples < percentile_min_samples(percentile)
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "mean_us": self.mean_us,
            "max_us": self.max_us,
            "samples": self.samples,
            "unsupported_percentiles": self.unsupported_percentiles(),
        }


@dataclass(frozen=True)
class ServingReport:
    """Everything one serving simulation observed.

    Latency percentiles are over *completed request* latencies (arrival to
    batch completion, plus the configured per-request overhead); device and
    cache counters are deltas over the simulated run only.
    ``queue_depth_hist`` sums the bank's per-device depth histograms
    (:func:`repro.device.clock.depth_bucket` buckets), keyed in bucket order.
    """

    num_requests: int
    num_batches: int
    offered_rate_rps: float
    throughput_rps: float
    makespan_s: float
    latency: LatencySummary
    slo_latency_us: float
    slo_violations: int
    mean_batch_size: float
    batch_size_hist: Dict[int, int] = field(default_factory=dict)
    mean_queue_depth: float = 0.0
    max_queue_depth: float = 0.0
    queue_depth_hist: Dict[int, int] = field(default_factory=dict)
    blocks_read: int = 0
    lookups: int = 0
    hit_rate: float = 0.0
    #: Requests rejected by single-host admission control (fast rejections
    #: at batch dispatch, no cache or device work; see
    #: ``ServingConfig.admission_queue_slack``).  ``0`` when shedding is
    #: disabled — the default, golden-pinned path.
    requests_shed: int = 0
    #: Observability snapshot of the host's device bank
    #: (:meth:`repro.device.bank.NVMDeviceBank.snapshot`) — one device under the
    #: default ``ServingConfig.devices_per_host``; ``None`` only on
    #: cluster-routed runs, where each node owns its devices.
    device_bank: Optional[Dict[str, object]] = None
    #: JSON-ready tracer summary (``repro.tracing``): per-stage latency
    #: breakdown plus the top-K slowest requests' critical paths.  ``None``
    #: unless the run was traced (``TracingConfig.enabled``).
    trace: Optional[Dict[str, object]] = None
    #: Cluster runs only: the router's robustness counters (retries,
    #: timeouts, sheds, hedges, breaker ejections, availability) and the
    #: per-node NVM block reads over the measured run.  ``None`` on host
    #: runs, and then absent from :meth:`to_dict`.
    counters: Optional["ClusterCounters"] = None
    node_blocks_read: Optional[List[int]] = None

    @property
    def slo_violation_rate(self) -> float:
        """Fraction of requests that missed the latency SLO."""
        if self.num_requests == 0:
            return 0.0
        return self.slo_violations / self.num_requests

    @property
    def shed_rate(self) -> float:
        """Fraction of requests shed by single-host admission control."""
        if self.num_requests == 0:
            return 0.0
        return self.requests_shed / self.num_requests

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (used by the benchmark artifacts)."""
        payload: Dict[str, object] = {
            "num_requests": self.num_requests,
            "num_batches": self.num_batches,
            "offered_rate_rps": self.offered_rate_rps,
            "throughput_rps": self.throughput_rps,
            "makespan_s": self.makespan_s,
            "latency": self.latency.to_dict(),
            "slo_latency_us": self.slo_latency_us,
            "slo_violations": self.slo_violations,
            "slo_violation_rate": self.slo_violation_rate,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_hist": {str(k): v for k, v in self.batch_size_hist.items()},
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "queue_depth_hist": {str(k): v for k, v in self.queue_depth_hist.items()},
            "blocks_read": self.blocks_read,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "requests_shed": self.requests_shed,
            "shed_rate": self.shed_rate,
            "device_bank": self.device_bank,
            "trace": self.trace,
        }
        if self.counters is not None:
            payload["counters"] = self.counters.as_dict()
        if self.node_blocks_read is not None:
            payload["node_blocks_read"] = list(self.node_blocks_read)
        return payload
