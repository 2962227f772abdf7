"""Time-unit boundary conversions.

The simulated clock runs in microseconds; configuration knobs that humans
author (trailing windows, breaker cool-offs, fault windows) are in seconds.
These helpers are the sanctioned crossing point: convert **once** at the
boundary, to *integer* microseconds, and keep all downstream clock
arithmetic in µs.  Rounding to whole microseconds matters — ``0.05 * 1e6``
is ``50000.000000000007`` in binary floating point, and letting that
non-integral "microsecond" value leak into comparisons makes window
boundaries depend on float representation rather than on the modeled clock.

``repro_lint`` rule R3 (time-unit hygiene) flags cross-unit assignments that
lack a visible conversion; routing them through this module keeps the
conversion explicit and the result integral.
"""

from __future__ import annotations

#: Microseconds per second / millisecond.
US_PER_S = 1_000_000
US_PER_MS = 1_000


def s_to_us(seconds: float) -> int:
    """Seconds -> integer microseconds (rounded to the nearest µs)."""
    return int(round(seconds * US_PER_S))
