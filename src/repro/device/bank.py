"""A bank of K physical NVM devices behind a table→device mapping.

:class:`NVMDeviceBank` is the resource abstraction both serving tiers sit
on: a host (or cluster node) owns ``num_devices`` physical devices, every
embedding table is pinned to exactly one of them (round-robin over first-use
order, or an explicit mapping), and all work for a table queues on its
device.  One device shared by many tables is the paper's actual single-host
deployment — cross-table contention is real because the *hardware* is
shared: every table's reads compete for the same submission slots.  One
device per table is the private-device counterfactual.

The bank adds nothing to the per-device arithmetic — that is
:class:`~repro.device.clock.DeviceClock`'s slot schedule.  It owns the
device-charge rule
(:meth:`NVMDeviceBank.serve_blocks`: a batch charges each device it touches
once, with the summed misses of the tables pinned to it), the mapping,
bank-wide observability (conservation invariant: total busy time — time
with a read in flight — ≤ wall time × K), rebase/restart plumbing, and the
single-host ``device.queue`` / ``device.service`` span emission.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.device.clock import DeviceClock, DeviceServiceRecord
from repro.nvm.latency import NVMLatencyModel
from repro.tracing.tracer import (
    ATTR_PARALLEL,
    STAGE_DEVICE_QUEUE,
    STAGE_DEVICE_SERVICE,
    Tracer,
)
from repro.utils.validation import check_int_at_least


class NVMDeviceBank:
    """K slotted NVM devices with a table→device mapping (see module docstring).

    Parameters
    ----------
    num_devices:
        Physical devices in the bank (``K``).
    latency_model:
        Shared unloaded law for device-priced work; ``None`` for banks whose
        clients price their own work (cluster nodes).
    tables:
        Tables to pin up front, round-robin in iteration order.  Tables not
        pre-pinned are pinned on first use, also round-robin — deterministic
        as long as the call order is (everything on the simulated clock is).
    """

    def __init__(
        self,
        num_devices: int,
        latency_model: Optional[NVMLatencyModel] = None,
        tables: Iterable[str] = (),
    ) -> None:
        check_int_at_least(num_devices, 1, "num_devices")
        self.devices: List[DeviceClock] = [
            DeviceClock(latency_model, index=i) for i in range(num_devices)
        ]
        self._table_device: Dict[str, int] = {}
        for name in tables:
            self.map_table(name)

    # ---------------------------------------------------------------- mapping
    def map_table(self, table_name: str) -> int:
        """Pin ``table_name`` to a device (idempotent); returns its index.

        Assignment is round-robin over first-use order — with ``K >=`` the
        table count every table gets a private device (the per-table
        counterfactual); with ``K = 1`` everything shares one device.
        """
        index = self._table_device.get(table_name)
        if index is None:
            index = len(self._table_device) % len(self.devices)
            self._table_device[table_name] = index
        return index

    def device_of(self, table_name: str) -> DeviceClock:
        """The device serving ``table_name`` (pinning it on first use)."""
        index = self._table_device.get(table_name)
        if index is None:
            index = self.map_table(table_name)
        return self.devices[index]

    # ----------------------------------------------------------------- timing
    def queue_wait_us(self, at_us: float, table_name: str) -> float:
        """How long a read of ``table_name`` arriving at ``at_us`` would wait.

        That is the wait for a free slot on the table's device — the
        quantity admission control sheds against, on either tier.
        """
        return self.device_of(table_name).queue_wait_us(at_us)

    def rebase(self, now_us: float = 0.0) -> None:
        """Re-anchor every device at ``now_us`` with every slot free.

        This is the one definition of restart semantics: warm-up rebase
        (``now_us = 0``) and node cold restarts both route here.
        """
        for device in self.devices:
            device.rebase(now_us)

    # ------------------------------------------------------------------ serve
    def serve_blocks(
        self, dispatch_us: float, blocks_by_table: Mapping[str, int]
    ) -> List[DeviceServiceRecord]:
        """Charge one batch's block reads: one serve per device it touches.

        A device services every read in its submission queue together,
        whichever table issued it, so the tables' counts are summed per
        device and each touched device prices its sum once at
        ``dispatch_us``.  Records come back in first-touch device order; a
        touched device is served even with zero reads (the serve is observed
        in its depth histogram).  With one device this is the whole batch's
        total on that device; with a device per table, one serve per table.
        """
        blocks_by_device: Dict[int, int] = {}
        for name, blocks in blocks_by_table.items():
            if type(blocks) is not int or blocks < 0:
                check_int_at_least(blocks, 0, "block_reads")
            index = self.map_table(name)
            blocks_by_device[index] = blocks_by_device.get(index, 0) + blocks
        return [
            self.devices[index].serve_blocks(dispatch_us, blocks)
            for index, blocks in blocks_by_device.items()
        ]

    # ---------------------------------------------------------------- tracing
    @staticmethod
    def emit_device_spans(
        tracer: Tracer,
        request_id: int,
        record: DeviceServiceRecord,
        parallel: bool = False,
    ) -> None:
        """Record one serve as ``device.queue`` + ``device.service`` spans.

        The single-host front-end's device spans (cluster attempts record
        their own ``node.queue`` / ``node.service`` spans): the queue span
        covers dispatch → the first read's start (the wait for a slot), the
        service span covers that start → the last read's end, with the
        pricing inputs as attributes.  Both nest under the request's root
        span; ``parallel`` marks them as concurrent siblings (a batch's per-device charges
        overlap by construction).
        """
        attrs: Dict[str, object] = {"device": record.device_index}
        if parallel:
            attrs[ATTR_PARALLEL] = True
        tracer.span(
            request_id,
            STAGE_DEVICE_QUEUE,
            record.dispatch_us,
            record.start_us,
            **attrs,
        )
        tracer.span(
            request_id,
            STAGE_DEVICE_SERVICE,
            record.start_us,
            record.completion_us,
            block_reads=record.block_reads,
            queue_depth=record.queue_depth,
            read_latency_us=record.read_latency_us,
            **attrs,
        )

    # ---------------------------------------------------------------- metrics
    def snapshot(self) -> Dict[str, object]:
        """JSON-ready observability snapshot (benchmark artifacts)."""
        return {
            "num_devices": len(self.devices),
            "table_mapping": dict(self._table_device),
            "per_device": [
                {
                    "serves": device.serves,
                    "blocks_issued": device.blocks_issued,
                    "busy_us": device.busy_us,
                    "free_at_us": device.free_at_us,
                    "depth_hist": {
                        str(k): v for k, v in sorted(device.depth_hist.items())
                    },
                }
                for device in self.devices
            ],
        }
