"""One physical NVM device as a schedule of submission slots.

:class:`DeviceClock` is the single implementation of the simulated-device
arithmetic both serving tiers use.  A device has :data:`DEVICE_SLOTS`
submission slots, held as a sorted array of the times each slot frees up;
a read occupies one slot for its whole service time, so at most
``DEVICE_SLOTS`` reads are in flight.  Queueing is charged once, by that
schedule: a read that finds every slot busy waits for the earliest one to
free.  There is no load-feedback formula on top — the price of a read is the
unloaded law :meth:`repro.nvm.latency.NVMLatencyModel.mean_latency_us` at the
depth the read observes, and the loaded behaviour of the paper's Figure 5 is
an *output* of the schedule (:func:`read_latency_under_load` measures it).

A client puts work on the device in one of two ways:

* :meth:`DeviceClock.serve_blocks` — *device-priced* work, the host's path:
  the client hands over a count of block reads dispatched together; each is
  priced at ``L(q)`` with ``q = min(slots busy at dispatch + reads,
  DEVICE_SLOTS)`` and takes the earliest-free slot, so independent calls
  overlap.  One call is a few NumPy operations on the slot array, however
  many reads it carries.
* :meth:`DeviceClock.serve_duration` — *externally-priced* work, the cluster
  node's path: the client already knows the service time (the node prices
  its reads through its replay engines) and the work waits for every slot
  and holds them all, so a node stays a FIFO resource.

Both paths share the observability the conservation tests pin: cumulative
busy time — the time with at least one read in flight, so it can never
exceed the device's wall-clock makespan — a power-of-two queue-depth
histogram whose counts sum to the number of serve calls, and the serve and
block counters.  Each serve returns its :class:`DeviceServiceRecord`; the
clock keeps no log of them.

Everything runs on the simulated clock; there are no wall-time reads.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.nvm.latency import NVMLatencyModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_int_at_least,
    check_non_negative,
    check_positive,
    check_type,
)

#: Submission slots of one device: the most reads it keeps in flight, and so
#: the deepest queue depth it prices a read at.
DEVICE_SLOTS = 64


class DeviceServiceRecord(NamedTuple):
    """What the device clock decided for one serve call.

    ``start_us`` is when the call's first read started and ``completion_us``
    when its last read ended — ``start_us - dispatch_us`` is the wait for a
    free slot, the split the tracer records as ``device.queue`` vs
    ``device.service``.  ``queue_depth`` is the depth the reads were priced
    at (for a call without reads, the slots busy at dispatch).
    ``device_index`` attributes the work to a physical device (the bank's
    ``table_mapping`` says which tables share it).
    """

    dispatch_us: float
    start_us: float
    completion_us: float
    block_reads: int
    queue_depth: float
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
    smallest bucket key with ``d <= key``.  The ``0`` bucket is exact: an
    idle device is a different fact than depth-1 occupancy and must not be
    clamped into it.
    """
    if depth <= 0.0:
        return 0
    return 1 << int(math.ceil(math.log2(max(depth, 1.0))))


class DeviceClock:
    """One simulated NVM device: :data:`DEVICE_SLOTS` submission slots.

    Parameters
    ----------
    latency_model:
        The device's unloaded law (paper Figure 2).  Required for
        :meth:`serve_blocks`; ``None`` is allowed for clients that only use
        :meth:`serve_duration` (the cluster node prices its own reads).
    index:
        This device's index within its :class:`~repro.device.bank.NVMDeviceBank`.
    """

    def __init__(
        self, latency_model: Optional[NVMLatencyModel] = None, index: int = 0
    ) -> None:
        self.latency_model = latency_model
        self.index = int(index)
        #: When each slot frees up, ascending.
        self._slot_free_us = np.zeros(DEVICE_SLOTS)
        #: ``L(q)`` for every depth a read can be priced at (index ``q``).
        self._read_us = (
            None
            if latency_model is None
            else [latency_model.mean_latency_us(q) for q in range(DEVICE_SLOTS + 1)]
        )
        #: The latest ``serve_blocks`` dispatch; busy time needs them in order.
        self._last_dispatch_us = 0.0
        # O(1) aggregates behind the conservation invariants.
        self.serves = 0
        self.busy_us = 0.0
        self.blocks_issued = 0
        self.depth_hist: Dict[int, int] = {}

    # ------------------------------------------------------------------ timing
    @property
    def free_at_us(self) -> float:
        """When the last slot frees up: every read issued so far has ended."""
        return float(self._slot_free_us[-1])

    def queue_wait_us(self, at_us: float) -> float:
        """How long a read arriving at ``at_us`` waits for a free slot."""
        return max(0.0, float(self._slot_free_us[0]) - at_us)

    def rebase(self, now_us: float = 0.0) -> None:
        """Re-anchor the clock at ``now_us`` with every slot free.

        Used by warm-up rebase (``now_us = 0``) and node cold restarts
        (``now_us =`` the restart time): work in flight is lost, cumulative
        aggregates are kept — the same split the cluster's crash recovery
        applies to its engines.
        """
        self._slot_free_us.fill(now_us)
        self._last_dispatch_us = now_us

    # ------------------------------------------------------------------ serve
    def serve_blocks(self, dispatch_us: float, block_reads: int) -> DeviceServiceRecord:
        """Price and serve ``block_reads`` reads dispatched at ``dispatch_us``.

        Each read costs ``L(q)``, ``q = min(slots busy at dispatch +
        block_reads, DEVICE_SLOTS)``, and takes the earliest-free slot: the
        ``k``-th earliest slot gets reads ``k``, ``k + DEVICE_SLOTS``, …
        back to back.  ``completion_us`` is when the last read ends (a
        batch's requests complete together).  A call with zero reads never
        visits the device and completes at its dispatch time.  Dispatches
        must be non-decreasing per device (the batcher guarantees it): busy
        time is counted on that assumption, so an earlier dispatch than the
        last one raises ``ValueError``.
        """
        # Cheap guards first; the checks run (and name the bad argument) only
        # when one fails.  A NaN fails every comparison.
        if not 0.0 <= dispatch_us < math.inf:
            check_non_negative(dispatch_us, "dispatch_us")
        if dispatch_us < self._last_dispatch_us:
            raise ValueError(
                f"dispatch_us={dispatch_us!r} precedes this device's last "
                f"dispatch at {self._last_dispatch_us!r}; serve_blocks "
                "dispatches must be non-decreasing"
            )
        if type(block_reads) is not int or block_reads < 0:
            block_reads = check_int_at_least(block_reads, 0, "block_reads")
        if self._read_us is None:
            raise ValueError(
                "this DeviceClock has no latency model; serve_blocks needs one "
                "(serve_duration is the externally-priced path)"
            )
        self._last_dispatch_us = dispatch_us
        slots = self._slot_free_us
        busy = DEVICE_SLOTS - int(slots.searchsorted(dispatch_us, side="right"))
        if block_reads == 0:
            return self._finish(
                DeviceServiceRecord(
                    dispatch_us=dispatch_us,
                    start_us=dispatch_us,
                    completion_us=dispatch_us,
                    block_reads=0,
                    queue_depth=float(busy),
                    read_latency_us=0.0,
                    device_index=self.index,
                ),
                0.0,
            )
        depth = min(busy + block_reads, DEVICE_SLOTS)
        read_us = self._read_us[depth]
        last_free_us = float(slots[-1])
        rounds, extra = divmod(block_reads, DEVICE_SLOTS)
        used = slots[: min(block_reads, DEVICE_SLOTS)]
        np.maximum(used, dispatch_us, out=used)
        start_us = float(used[0])
        # ``used`` stays sorted under a uniform add, so each run's last slot
        # is its latest; slots before ``extra`` carry one read more.
        if rounds:
            used += rounds * read_us
        if extra:
            used[:extra] += read_us
        completion_us = float(max(used[extra - 1], used[-1]))
        slots.sort()
        # Non-decreasing dispatches keep the busy set from ``dispatch_us`` on
        # one interval ending at the last slot's free time; this call extends
        # it from where it ended (or from its dispatch, if the device idled).
        busy_us = float(slots[-1]) - max(last_free_us, dispatch_us)
        return self._finish(
            DeviceServiceRecord(
                dispatch_us=dispatch_us,
                start_us=start_us,
                completion_us=completion_us,
                block_reads=block_reads,
                queue_depth=float(depth),
                read_latency_us=read_us,
                device_index=self.index,
            ),
            busy_us,
        )

    def serve_duration(
        self,
        arrive_us: float,
        service_us: float,
        block_reads: int = 0,
    ) -> DeviceServiceRecord:
        """Serve externally-priced work that holds the whole device.

        The caller already knows the service time (e.g. the cluster node's
        ``(overhead + engine NVM latency) × slow-multiplier``); the work waits
        for every slot to free, then holds them all, so successive calls
        serialise FIFO.  Arrivals need *not* be monotone (retries and hedges
        arrive out of order); the observed depth is recorded as 1 when the
        work had to queue, 0 when the device was idle — occupancy, not a
        priced depth.
        """
        if not (0.0 <= arrive_us < math.inf and 0.0 <= service_us < math.inf):
            check_non_negative(arrive_us, "arrive_us")
            check_non_negative(service_us, "service_us")
        if type(block_reads) is not int or block_reads < 0:
            block_reads = check_int_at_least(block_reads, 0, "block_reads")
        free_us = float(self._slot_free_us[-1])
        start_us = arrive_us if arrive_us > free_us else free_us
        completion_us = start_us + service_us
        self._slot_free_us.fill(completion_us)
        # Positional fields (a keyword construction costs more than the rest
        # of the call): dispatch, start, completion, reads, depth, read
        # latency, device.
        return self._finish(
            DeviceServiceRecord(
                arrive_us,
                start_us,
                completion_us,
                block_reads,
                1.0 if start_us > arrive_us else 0.0,
                0.0,
                self.index,
            ),
            completion_us - start_us,
        )

    # ---------------------------------------------------------------- private
    def _finish(
        self, record: DeviceServiceRecord, busy_us: float
    ) -> DeviceServiceRecord:
        """Fold one decided record into the aggregates."""
        self.serves += 1
        self.busy_us += busy_us
        self.blocks_issued += record.block_reads
        depth = record.queue_depth
        # Depths 0 and 1 (every FIFO serve) skip ``depth_bucket``'s log2.
        bucket = 0 if depth <= 0.0 else 1 if depth <= 1.0 else depth_bucket(depth)
        self.depth_hist[bucket] = self.depth_hist.get(bucket, 0) + 1
        return record


#: Length of the read stream :func:`read_latency_under_load` offers.
LOAD_STREAM_READS = 5000


def read_latency_under_load(device_mbps: float) -> Tuple[float, float]:
    """Measured mean and P99 read latency (µs) at ``device_mbps`` of load.

    Paper Figure 5 as an output of the slot schedule: a Poisson stream of
    :data:`LOAD_STREAM_READS` single-block reads (seed 0), offered at
    ``device_mbps`` of device throughput (block reads × block size), is
    served by a fresh :class:`DeviceClock` running the default
    :class:`~repro.nvm.latency.NVMLatencyModel`, and each read's latency is
    its completion minus its arrival.  Below the device's bandwidth the
    curve stays near the unloaded law; past it the backlog grows with the
    stream, so there the result scales with the stream's length.
    """
    check_positive(check_type(device_mbps, float, "device_mbps"), "device_mbps")
    model = NVMLatencyModel()
    mean_gap_us = model.block_bytes / device_mbps  # bytes / (bytes/µs)
    arrivals_us = np.cumsum(ensure_rng(0).exponential(mean_gap_us, LOAD_STREAM_READS))
    clock = DeviceClock(model)
    latencies = np.array(
        [
            clock.serve_blocks(at_us, 1).completion_us - at_us
            for at_us in arrivals_us.tolist()
        ]
    )
    return float(latencies.mean()), float(np.percentile(latencies, 99))
