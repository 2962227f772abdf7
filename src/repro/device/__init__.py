"""The shared NVM device layer: one resource abstraction for both tiers.

Bandana's real deployment is one host whose embedding tables all contend for
the *same* physical NVM devices.  This package models exactly that resource:
:class:`~repro.device.clock.DeviceClock` is one physical device as a FIFO
clock (with the paper's Figure-5 load-feedback pricing), and
:class:`~repro.device.bank.NVMDeviceBank` is a host's bank of K devices
behind a table→device mapping.

Both serving tiers are clients of this layer rather than owners of their own
clock arithmetic:

* the single-host front-end (:mod:`repro.serving.frontend`) builds one bank
  per run and charges every batch's misses on it (device-priced work):
  ``"legacy"`` accounting is a 1-device bank charged whole batches — the
  original serving accountant's arithmetic, which the golden serving pins
  verify — and ``"shared"`` accounting puts every table's misses on its own
  device of a ``devices_per_host`` bank so cross-table contention is real;
* each :class:`~repro.cluster.node.ClusterNode` owns a per-node bank
  (externally-priced work — the node prices reads through its replay
  engines) instead of a hand-rolled ``busy_until_us`` clock, and restart /
  rebase semantics are defined once, in :meth:`NVMDeviceBank.rebase`.

The layer also owns the ``device.queue`` / ``device.service`` tracing span
emission (:meth:`NVMDeviceBank.emit_device_spans`) and the observability the
conservation tests pin: per-device busy time (≤ wall time per device, ≤
wall × K per bank) and queue-depth histograms whose counts sum to the serve
count.  Everything runs on the simulated clock.
"""

from repro.device.bank import NVMDeviceBank
from repro.device.clock import DeviceClock, DeviceServiceRecord, depth_bucket

__all__ = [
    "DeviceClock",
    "DeviceServiceRecord",
    "NVMDeviceBank",
    "depth_bucket",
]
