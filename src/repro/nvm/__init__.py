"""Block-addressable NVM device model and block layout machinery.

The paper uses a 375 GB NVM block device whose read bandwidth saturates around
2.3 GB/s and whose latency grows with queue depth (Figure 2) and with load
(Figure 5, which the device's slot schedule in :mod:`repro.device`
reproduces).  Byte-addressable NVM DIMMs were not available, so the device is
read in 4 KB blocks; a 128 B embedding-vector read therefore wastes 96 % of
the device bandwidth unless neighbouring vectors in the block are useful.

This package provides:

* :class:`repro.nvm.block.BlockLayout` — the mapping from vector id to (block, slot)
  induced by a placement order,
* :class:`repro.nvm.latency.NVMLatencyModel` — the one unloaded law of read latency
  against queue depth, calibrated to the paper's Figure 2, with bandwidth
  derived from it by Little's law; the replay engines and the device clocks
  (:mod:`repro.device`) price every block read with it,
* :class:`repro.nvm.EnduranceTracker` and :class:`repro.nvm.DRAMModel`.

Block reads are counted in one place, the replay's
:class:`~repro.caching.replay.ReplayStats` (one read per demand miss).
"""

from repro.nvm.endurance import EnduranceTracker
from repro.nvm.dram import DRAMModel

__all__ = [
    "EnduranceTracker",
    "DRAMModel",
]
