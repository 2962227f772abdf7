"""The shared NVM device layer: one resource abstraction for both tiers.

Bandana's real deployment is one host whose embedding tables all contend for
the *same* physical NVM devices.  This package models exactly that resource:
:class:`~repro.device.clock.DeviceClock` is one physical device as a schedule
of :data:`~repro.device.clock.DEVICE_SLOTS` submission slots, each read
priced by the unloaded Figure-2 law at the depth it observes, and
:class:`~repro.device.bank.NVMDeviceBank` is a host's bank of K devices
behind a table→device mapping.  Queueing is charged once, by the slot
schedule; the loaded curve of the paper's Figure 5 is measured off it by
:func:`~repro.device.clock.read_latency_under_load`.

Both serving tiers are clients of this layer rather than owners of their own
clock arithmetic:

* the single-host front-end (:mod:`repro.serving.frontend`) builds one bank
  of ``ServingConfig.devices_per_host`` devices per run and charges every
  batch's misses on it (device-priced work) by one rule,
  :meth:`NVMDeviceBank.serve_blocks`: each device the batch touches is
  served once, with the summed misses of the tables pinned to it.  One
  device (the default) serves the whole batch's misses in one call; a
  device per table is the private-device counterfactual;
* each :class:`~repro.cluster.node.ClusterNode` owns a per-node bank
  (externally-priced work — the node prices reads through its replay
  engines; its work holds every slot, so a node stays FIFO), and restart /
  rebase semantics are defined once, in :meth:`NVMDeviceBank.rebase`.

The layer also owns the single-host ``device.queue`` / ``device.service``
tracing span emission (:meth:`NVMDeviceBank.emit_device_spans`; cluster
attempts record ``node.queue`` / ``node.service`` spans instead) and the
observability the conservation tests pin: per-device busy time, the time
with a read in flight (≤ wall time per device, ≤ wall × K per bank), and
queue-depth histograms whose counts sum to the serve count.  Everything runs
on the simulated clock.
"""

from repro.device.clock import DEVICE_SLOTS, DeviceClock, read_latency_under_load

__all__ = [
    "DEVICE_SLOTS",
    "DeviceClock",
    "read_latency_under_load",
]
