"""One physical NVM device as a FIFO clock with load-feedback pricing.

:class:`DeviceClock` is the single implementation of the simulated-device
arithmetic that used to live twice in this repository — once in the serving
tier's latency accountant and once, hand-rolled, inside the cluster node.
It models one physical device as one FIFO resource (``free_at_us``) and
supports the two ways a client can put work on it:

* :meth:`DeviceClock.serve_blocks` — *device-priced* work: the client hands
  over a count of NVM block reads and the clock prices them itself, feeding
  the observed queue depth and the trailing-window device throughput into
  :meth:`repro.nvm.latency.NVMLatencyModel.loaded_latency` and charging
  ``ceil(blocks / queue_depth)`` serial rounds at that price.  This is the
  serving front-end's path (paper Figure 5's feedback loop), preserved
  bit-for-bit from the original accountant so the golden serving pins hold.
* :meth:`DeviceClock.serve_duration` — *externally-priced* work: the client
  already knows the service time (the cluster node computes it from its
  replay engine's NVM latency plus node overhead, stretched by slow-node
  multipliers) and the clock only provides FIFO serialisation — start at
  ``max(free_at, arrive)``, advance the clock, report the queue wait.

Both paths share the observability the conservation tests pin: cumulative
busy time (FIFO service intervals never overlap, so per-device busy time can
never exceed the device's wall-clock makespan), a power-of-two queue-depth
histogram whose counts sum to the number of serve calls, and the serve and
block counters.  Each serve returns its :class:`DeviceServiceRecord`; the
clock keeps no log of them.

Everything runs on the simulated clock; there are no wall-time reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.nvm.latency import NVMLatencyModel
from repro.utils.units import s_to_us


@dataclass(frozen=True)
class DeviceServiceRecord:
    """What the device clock decided for one serve call.

    ``start_us`` is when the device actually began the work —
    ``completion_us - start_us`` is pure service time and
    ``start_us - dispatch_us`` is FIFO queue wait behind earlier work, the
    split the tracer records as ``device.queue`` vs ``device.service``.
    ``device_index`` attributes the work to a physical device (the bank's
    ``table_mapping`` says which tables share it).
    """

    dispatch_us: float
    start_us: float
    completion_us: float
    block_reads: int
    queue_depth: float
    device_mbps: float
    read_latency_us: float
    device_index: int = 0

    @property
    def queue_wait_us(self) -> float:
        return self.start_us - self.dispatch_us

    @property
    def service_us(self) -> float:
        return self.completion_us - self.start_us


def depth_bucket(depth: float) -> int:
    """Power-of-two histogram bucket for one queue-depth sample.

    Keys are bucket upper edges (0, 1, 2, 4, ...): depth ``d`` lands in the
    smallest bucket key with ``d <= key``.  Depths span several orders of
    magnitude once the device saturates, so exact counts would be noise —
    except the ``0`` bucket, which is exact: an idle device is a different
    fact than depth-1 occupancy and must not be clamped into it.
    """
    if depth <= 0.0:
        return 0
    return 1 << int(math.ceil(math.log2(max(depth, 1.0))))


class DeviceClock:
    """One simulated NVM device: a FIFO clock with two pricing modes.

    Parameters
    ----------
    latency_model:
        Device latency/bandwidth model (paper Figure 2/5 calibration).
        Required for :meth:`serve_blocks`; ``None`` is allowed for clients
        that only use :meth:`serve_duration` (the cluster node prices its
        own reads through its replay engines).
    block_bytes:
        Bytes physically read per block read (throughput measurement).
    max_queue_depth:
        Cap on the queue depth fed to the latency model (device submission
        slots); backlog beyond it costs extra serial rounds instead.
    throughput_window_s:
        Trailing window over which device throughput is measured.
    index:
        This device's index within its :class:`~repro.device.bank.NVMDeviceBank`.
    """

    def __init__(
        self,
        latency_model: Optional[NVMLatencyModel],
        block_bytes: int,
        max_queue_depth: float = 64.0,
        throughput_window_s: float = 0.05,
        index: int = 0,
    ) -> None:
        self.latency_model = latency_model
        self.block_bytes = int(block_bytes)
        self.max_queue_depth = float(max_queue_depth)
        # Normalised to *integer* µs at the boundary: 0.05 * 1e6 is
        # 50000.000000000007 in floats, and window pruning must not depend
        # on that representation noise.
        self.window_us = s_to_us(throughput_window_s)
        self.index = int(index)
        self.free_at_us = 0.0
        # Issue log for the trailing-window throughput measurement and the
        # in-flight scan; dispatches are non-decreasing on the block-priced
        # path, so both prune with a monotone pointer (amortised O(1)).
        self._issue_us: List[float] = []
        self._issue_blocks: List[int] = []
        self._completion_us: List[float] = []
        self._window_start = 0
        self._window_blocks = 0
        self._inflight_start = 0
        self._inflight_blocks = 0
        # O(1) aggregates behind the conservation invariants.
        self.serves = 0
        self.busy_us = 0.0
        self.blocks_issued = 0
        self.depth_hist: Dict[int, int] = {}

    # ------------------------------------------------------------------ timing
    def queue_wait_us(self, at_us: float) -> float:
        """Backlog work arriving at ``at_us`` would wait behind."""
        return max(0.0, self.free_at_us - at_us)

    def rebase(self, now_us: float = 0.0) -> None:
        """Re-anchor the clock at ``now_us`` with an empty backlog.

        Used by warm-up rebase (``now_us = 0``) and node cold restarts
        (``now_us =`` the restart time): queued work and the trailing
        throughput window are lost, cumulative aggregates are kept — the
        same split the cluster's crash recovery applies to its engines.
        """
        self.free_at_us = float(now_us)
        self._issue_us.clear()
        self._issue_blocks.clear()
        self._completion_us.clear()
        self._window_start = 0
        self._window_blocks = 0
        self._inflight_start = 0
        self._inflight_blocks = 0

    # ------------------------------------------------------------------ serve
    def serve_blocks(
        self,
        dispatch_us: float,
        block_reads: int,
    ) -> DeviceServiceRecord:
        """Price and serve ``block_reads`` dispatched at ``dispatch_us``.

        Returns the service record; ``completion_us`` is when every read has
        finished (a batch's requests complete together).  A call with zero
        reads (all lookups hit DRAM) never visits the device and completes
        at its dispatch time.  Dispatches must be non-decreasing per device
        (the batcher guarantees it), which keeps window pruning O(1).
        """
        if block_reads < 0:
            raise ValueError("block_reads must be >= 0")
        if self.latency_model is None:
            raise ValueError(
                "this DeviceClock has no latency model; serve_blocks needs one "
                "(serve_duration is the externally-priced path)"
            )
        self._prune(dispatch_us)
        outstanding = self._inflight_blocks + block_reads
        queue_depth = min(max(float(outstanding), 1.0), self.max_queue_depth)
        mbps = self._throughput_mbps(block_reads)
        if block_reads == 0:
            # No device visit: record the depth actually observed (possibly
            # 0, an idle device) rather than the >=1 clamp the latency model
            # needs — the model is never consulted on this branch.
            return self._finish(
                DeviceServiceRecord(
                    dispatch_us=dispatch_us,
                    start_us=dispatch_us,
                    completion_us=dispatch_us,
                    block_reads=0,
                    queue_depth=min(
                        float(self._inflight_blocks), self.max_queue_depth
                    ),
                    device_mbps=mbps,
                    read_latency_us=0.0,
                    device_index=self.index,
                )
            )
        read_latency = self.latency_model.loaded_latency(
            mbps, queue_depth=queue_depth
        ).mean_us
        rounds = math.ceil(block_reads / queue_depth)
        start_us = max(dispatch_us, self.free_at_us)
        completion_us = start_us + rounds * read_latency
        self.free_at_us = completion_us
        self._issue_us.append(dispatch_us)
        self._issue_blocks.append(block_reads)
        self._completion_us.append(completion_us)
        self._window_blocks += block_reads
        self._inflight_blocks += block_reads
        return self._finish(
            DeviceServiceRecord(
                dispatch_us=dispatch_us,
                start_us=start_us,
                completion_us=completion_us,
                block_reads=block_reads,
                queue_depth=queue_depth,
                device_mbps=mbps,
                read_latency_us=read_latency,
                device_index=self.index,
            )
        )

    def serve_duration(
        self,
        arrive_us: float,
        service_us: float,
        block_reads: int = 0,
    ) -> DeviceServiceRecord:
        """Serve externally-priced work behind the FIFO backlog.

        The caller already knows the service time (e.g. the cluster node's
        ``(overhead + engine NVM latency) × slow-multiplier``); the clock
        contributes only the queue wait and advances.  Arrivals need *not*
        be monotone (retries and hedges arrive out of order); the observed
        depth is recorded as 1 when the work had to queue, 0 when the device
        was idle — occupancy, not submission-slot depth, since no depth was
        priced.
        """
        if service_us < 0:
            raise ValueError("service_us must be >= 0")
        start_us = max(self.free_at_us, arrive_us)
        completion_us = start_us + service_us
        self.free_at_us = completion_us
        return self._finish(
            DeviceServiceRecord(
                dispatch_us=arrive_us,
                start_us=start_us,
                completion_us=completion_us,
                block_reads=int(block_reads),
                queue_depth=1.0 if start_us > arrive_us else 0.0,
                device_mbps=0.0,
                read_latency_us=0.0,
                device_index=self.index,
            )
        )

    # ---------------------------------------------------------------- private
    def _finish(self, record: DeviceServiceRecord) -> DeviceServiceRecord:
        """Fold one decided record into the aggregates."""
        self.serves += 1
        self.busy_us += record.completion_us - record.start_us
        self.blocks_issued += record.block_reads
        bucket = depth_bucket(record.queue_depth)
        self.depth_hist[bucket] = self.depth_hist.get(bucket, 0) + 1
        return record

    def _prune(self, now_us: float) -> None:
        while (
            self._window_start < len(self._issue_us)
            and self._issue_us[self._window_start] <= now_us - self.window_us
        ):
            self._window_blocks -= self._issue_blocks[self._window_start]
            self._window_start += 1
        while (
            self._inflight_start < len(self._completion_us)
            and self._completion_us[self._inflight_start] <= now_us
        ):
            self._inflight_blocks -= self._issue_blocks[self._inflight_start]
            self._inflight_start += 1

    def _throughput_mbps(self, new_blocks: int) -> float:
        """Device throughput over the trailing window, including this work."""
        blocks = self._window_blocks + new_blocks
        return blocks * self.block_bytes / self.window_us  # bytes/µs == MB/s
