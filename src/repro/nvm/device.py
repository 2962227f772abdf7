"""The simulated NVM block device.

The real system issues 4 KB block reads to an NVM drive through Libaio; all of
Bandana's decisions are driven by *how many* block reads the drive serves and
what latency it delivers at a given load.  :class:`NVMDevice` therefore models
the device as a counted collection of fixed-size blocks with an attached
latency model and endurance tracker.  It can optionally hold real block
payloads (used by the end-to-end examples that return actual embedding
values); the replay benchmarks run it in pure counting mode for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.nvm.endurance import EnduranceTracker
from repro.nvm.latency import NVMLatencyModel
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class NVMReadResult:
    """Outcome of a single block read."""

    block_id: int
    latency_us: float
    data: Optional[np.ndarray] = None


class NVMDevice:
    """A block-addressable NVM device with latency and endurance accounting.

    Parameters
    ----------
    num_blocks:
        Number of addressable blocks.
    block_bytes:
        Block size in bytes (4096 in the paper).
    latency_model:
        Latency/bandwidth model; defaults to the paper-calibrated model.
    dwpd_limit:
        Endurance budget in drive-writes-per-day.
    track_per_block_reads:
        When true, keeps a per-block read histogram (useful for debugging
        placement quality; adds memory proportional to ``num_blocks``).
    """

    def __init__(
        self,
        num_blocks: int,
        block_bytes: int = 4096,
        latency_model: Optional[NVMLatencyModel] = None,
        dwpd_limit: float = 30.0,
        track_per_block_reads: bool = False,
    ) -> None:
        check_positive(num_blocks, "num_blocks")
        check_positive(block_bytes, "block_bytes")
        self.num_blocks = int(num_blocks)
        self.block_bytes = int(block_bytes)
        self.latency_model = latency_model or NVMLatencyModel(block_bytes=block_bytes)
        self.endurance = EnduranceTracker(
            capacity_bytes=self.num_blocks * self.block_bytes, dwpd_limit=dwpd_limit
        )
        self._payloads: Dict[int, np.ndarray] = {}
        self._blocks_read = 0
        self._blocks_written = 0
        self._total_read_latency_us = 0.0
        self._per_block_reads: Optional[np.ndarray] = (
            np.zeros(self.num_blocks, dtype=np.int64) if track_per_block_reads else None
        )
        # charge_read's memo: (latency model, queue depth, their latency in µs).
        self._read_latency: Tuple[Optional[NVMLatencyModel], float, float] = (None, 0.0, 0.0)

    # ------------------------------------------------------------------ writes
    def write_block(self, block_id: int, data: Optional[np.ndarray] = None) -> None:
        """Write one block (e.g. during table loading or retraining).

        ``data`` is stored only if provided; counting-mode users simply get the
        endurance/byte accounting.
        """
        self._check_block(block_id)
        if data is not None:
            data = np.asarray(data)
            if data.nbytes > self.block_bytes:
                raise ValueError(
                    f"payload of {data.nbytes} bytes exceeds block size {self.block_bytes}"
                )
            self._payloads[block_id] = data
        self._blocks_written += 1
        self.endurance.record_write(self.block_bytes)

    def write_all_blocks(self) -> None:
        """Account for a full-device rewrite (one embedding retraining push)."""
        for block_id in range(self.num_blocks):
            self.write_block(block_id)

    # ------------------------------------------------------------------- reads
    def read_block(self, block_id: int, queue_depth: float = 8.0) -> NVMReadResult:
        """Read one block, returning its payload (if any) and modelled latency."""
        return NVMReadResult(
            block_id=block_id,
            latency_us=self.charge_read(block_id, queue_depth=queue_depth),
            data=self._payloads.get(block_id),
        )

    def charge_read(self, block_id: int, queue_depth: float = 8.0) -> float:
        """Account for one block read and return its modelled latency (µs).

        The payload-free half of :meth:`read_block`, for replay loops that
        only need the counters and the latency.  The latency of the last
        ``(latency model, queue depth)`` pair is remembered, so a constant
        depth is validated once rather than per read.
        """
        self._check_block(block_id)
        model, depth, latency = self._read_latency
        if depth != queue_depth or model is not self.latency_model:
            latency = self.latency_model.mean_latency_us(queue_depth)
            self._read_latency = (self.latency_model, queue_depth, latency)
        self._blocks_read += 1
        self._total_read_latency_us += latency
        if self._per_block_reads is not None:
            self._per_block_reads[block_id] += 1
        return latency

    def read_blocks(self, block_ids: npt.ArrayLike, queue_depth: float = 8.0) -> float:
        """Read several blocks; returns the total modelled latency in µs.

        Reads at the same queue depth overlap on the device, so the modelled
        wall-clock latency of a batch is the per-read latency times the number
        of serial rounds (``ceil(len(block_ids) / queue_depth)``).
        """
        block_ids = np.asarray(block_ids, dtype=np.int64)
        for block_id in block_ids:
            self.read_block(int(block_id), queue_depth=queue_depth)
        if block_ids.size == 0:
            return 0.0
        rounds = int(np.ceil(block_ids.size / queue_depth))
        return rounds * self.latency_model.mean_latency_us(queue_depth)

    # ---------------------------------------------------------------- counters
    @property
    def blocks_read(self) -> int:
        """Total number of block reads served."""
        return self._blocks_read

    @property
    def bytes_read(self) -> int:
        """Total bytes physically read from the device."""
        return self._blocks_read * self.block_bytes

    @property
    def blocks_written(self) -> int:
        """Total number of block writes."""
        return self._blocks_written

    @property
    def mean_read_latency_us(self) -> float:
        """Average modelled latency over all reads so far."""
        if self._blocks_read == 0:
            return 0.0
        return self._total_read_latency_us / self._blocks_read

    @property
    def per_block_reads(self) -> Optional[np.ndarray]:
        """Per-block read counts, or ``None`` if tracking is disabled."""
        return self._per_block_reads

    def reset_counters(self) -> None:
        """Zero the read/write counters (payloads and endurance are kept)."""
        self._blocks_read = 0
        self._blocks_written = 0
        self._total_read_latency_us = 0.0
        if self._per_block_reads is not None:
            self._per_block_reads[:] = 0

    # ----------------------------------------------------------------- private
    def _check_block(self, block_id: int) -> None:
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(
                f"block_id {block_id} out of range [0, {self.num_blocks})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NVMDevice(num_blocks={self.num_blocks}, block_bytes={self.block_bytes}, "
            f"blocks_read={self._blocks_read})"
        )
