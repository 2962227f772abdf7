"""Reference DRAM performance and cost constants.

Bandana's motivation is the total-cost-of-ownership gap between DRAM and NVM:
the paper quotes DRAM read bandwidth around 75 GB/s (versus 2.3 GB/s for the
NVM device) and an NVM cost roughly an order of magnitude lower per bit.
:class:`DRAMModel` packages those constants so examples and benchmarks can
report TCO-style comparisons next to the bandwidth results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from repro.utils.validation import Positive, validate_fields


@dataclass(frozen=True)
class DRAMModel:
    """Simple DRAM performance/cost model used for comparisons.

    Attributes
    ----------
    bandwidth_gbps:
        Sustained read bandwidth (the paper quotes ~75 GB/s).
    latency_us:
        Random access latency in microseconds (~0.1 µs).
    cost_per_gb:
        Relative cost per GB.  Only the *ratio* to ``nvm_cost_per_gb`` matters
        for the TCO comparisons; the paper states NVM is about an order of
        magnitude cheaper per bit.
    nvm_cost_per_gb:
        Relative cost per GB of the NVM device.
    """

    bandwidth_gbps: Annotated[float, Positive] = 75.0
    latency_us: Annotated[float, Positive] = 0.1
    cost_per_gb: Annotated[float, Positive] = 10.0
    nvm_cost_per_gb: Annotated[float, Positive] = 1.0

    def __post_init__(self) -> None:
        validate_fields(self)

    def cost(self, dram_bytes: float, nvm_bytes: float = 0.0) -> float:
        """Relative cost of a deployment holding the given bytes in each medium."""
        if dram_bytes < 0 or nvm_bytes < 0:
            raise ValueError("byte counts must be non-negative")
        gib = 1024.0 ** 3
        return (dram_bytes / gib) * self.cost_per_gb + (nvm_bytes / gib) * self.nvm_cost_per_gb

    def savings_vs_all_dram(self, total_bytes: float, dram_cache_bytes: float) -> float:
        """Fractional TCO saving of a Bandana deployment versus all-DRAM.

        ``total_bytes`` is the full embedding footprint; ``dram_cache_bytes``
        is the DRAM cache Bandana keeps (the rest lives on NVM).
        """
        if dram_cache_bytes > total_bytes:
            raise ValueError("dram_cache_bytes cannot exceed total_bytes")
        all_dram = self.cost(total_bytes)
        bandana = self.cost(dram_cache_bytes, total_bytes)
        if all_dram == 0:
            return 0.0
        return 1.0 - bandana / all_dram
