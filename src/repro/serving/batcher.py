"""Request queue and dynamic batcher.

The front-end queues arriving requests and dispatches them in *dynamic
batches* under the two standard cutoffs:

* **size** — a batch is dispatched the instant it reaches
  ``max_batch_requests`` (its dispatch time is the arrival time of the
  request that filled it);
* **linger** — an incomplete batch is dispatched once its oldest request has
  waited ``max_linger_us`` (its dispatch time is that deadline).

Batch formation depends only on the arrival timestamps and the two cutoffs —
not on how long the device takes to serve earlier batches — so it is a pure,
deterministic function: the front-end thread always drains its queue on time,
and any backlog shows up downstream as device queueing (handled by the
device bank, :mod:`repro.device`), not as altered batch composition.  Dispatch
times are non-decreasing in batch order, which the device clocks rely on.

``max_batch_requests=1`` degenerates to unbatched serving: every request is
dispatched at its own arrival time and the linger cutoff never applies.

When tracing is enabled (:mod:`repro.tracing`), the interval a request
spends here — its arrival to its batch's dispatch, i.e. queue wait plus any
linger — is recorded as its ``batcher.queue`` span, attributed with the
batch id and size; a request that filled its batch has a zero-length span
(it never waited), which is exactly the batching-cost signal a p999
investigation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class Batch:
    """One dispatched batch of requests.

    Attributes
    ----------
    start:
        Index (into the arrival-ordered request stream) of the first request.
    stop:
        One past the index of the last request (``stop - start`` is the size).
    dispatch_us:
        Simulated-clock dispatch time in microseconds.
    """

    start: int
    stop: int
    dispatch_us: float


def form_batches(
    arrival_us: np.ndarray, max_batch_requests: int, max_linger_us: float
) -> List[Batch]:
    """Group an ascending arrival-time array into dispatched batches.

    ``arrival_us`` must be sorted ascending (the arrival processes emit it
    that way); requests are batched strictly in arrival order.
    """
    check_positive(max_batch_requests, "max_batch_requests")
    check_non_negative(max_linger_us, "max_linger_us")
    arrival_us = np.asarray(arrival_us, dtype=np.float64)
    n = int(arrival_us.size)
    batches: List[Batch] = []
    i = 0
    while i < n:
        deadline = arrival_us[i] + max_linger_us
        # Everything that arrives by the linger deadline is eligible...
        eligible = int(np.searchsorted(arrival_us, deadline, side="right"))
        stop = min(i + max_batch_requests, eligible)
        if stop - i == max_batch_requests:
            # ...but the size cutoff fires the moment the batch fills.
            dispatch = float(arrival_us[stop - 1])
        else:
            dispatch = float(deadline)
        batches.append(Batch(start=i, stop=stop, dispatch_us=dispatch))
        i = stop
    return batches
