"""Write-endurance accounting for the NVM device.

NVM endurance degrades with writes: the paper notes typical devices tolerate
about 30 full-device rewrites per day (DWPD), while Facebook's embedding
retraining rewrites the tables 10–20 times a day — comfortably below the
limit.  :class:`EnduranceTracker` keeps the bookkeeping so deployments (and
the examples in this repository) can check that a retraining cadence stays
within budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from repro.utils.validation import AtLeast, Positive, check_non_negative, validate_fields


@dataclass
class EnduranceTracker:
    """Tracks bytes written to the device against a drive-writes-per-day budget.

    Parameters
    ----------
    capacity_bytes:
        Usable capacity of the device.
    dwpd_limit:
        Maximum sustainable full-device writes per day (30 for the paper's
        device class).
    """

    capacity_bytes: Annotated[int, AtLeast(1)]
    dwpd_limit: Annotated[float, Positive] = 30.0
    _bytes_written: int = field(default=0, init=False)
    _elapsed_days: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        validate_fields(self)

    # ------------------------------------------------------------------ record
    def record_write(self, num_bytes: int) -> None:
        """Account for ``num_bytes`` written to the device."""
        check_non_negative(num_bytes, "num_bytes")
        self._bytes_written += int(num_bytes)

    def advance_time(self, days: float) -> None:
        """Advance the accounting clock by ``days`` (fractions allowed)."""
        check_non_negative(days, "days")
        self._elapsed_days += float(days)

    # ----------------------------------------------------------------- inspect
    @property
    def bytes_written(self) -> int:
        """Total bytes written so far."""
        return self._bytes_written

    @property
    def elapsed_days(self) -> float:
        """Days of operation recorded so far."""
        return self._elapsed_days

    @property
    def device_writes(self) -> float:
        """Number of full-device writes performed so far."""
        return self._bytes_written / self.capacity_bytes

    @property
    def drive_writes_per_day(self) -> float:
        """Average full-device writes per day over the recorded period.

        Returns ``0`` until time has been advanced, so a fresh tracker never
        reports a violation.
        """
        if self._elapsed_days <= 0:
            return 0.0
        return self.device_writes / self._elapsed_days

    @property
    def within_budget(self) -> bool:
        """Whether the observed write rate is within the DWPD limit."""
        return self.drive_writes_per_day <= self.dwpd_limit

    def headroom(self) -> float:
        """Remaining DWPD headroom (limit minus observed rate)."""
        return self.dwpd_limit - self.drive_writes_per_day

    def reset(self) -> None:
        """Clear all recorded writes and elapsed time."""
        self._bytes_written = 0
        self._elapsed_days = 0.0
