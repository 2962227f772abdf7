"""The serving run's arrivals: one pending-arrivals heap and one batcher.

The front-end's default is an *open* system: requests arrive on their own
clock whether or not the store has finished the previous ones, which is what
makes device saturation visible as unbounded queueing delay.  The open-loop
process is **Poisson** — memoryless arrivals at a constant rate, the standard
model for large independent user populations ("millions of users" aggregate
to Poisson regardless of per-user behaviour).

**Closed-loop** arrivals model RPC fan-in: a fixed population of clients,
each with at most one request in flight, issuing its next request one
exponential think time after the previous response.  Concurrency is capped
at the population size by construction, so saturation slows the clients
down (throughput plateaus at ``clients / (think + response)``) instead of
growing the queue without bound.

Both are one :class:`ArrivalSource`: the run's pending arrival times (µs) as
one min-heap.  Poisson draws every arrival up front (an ascending list is
already a heap); a closed loop starts with each client's first think time
and pushes one more arrival per response (:meth:`ArrivalSource.respond`).
:func:`cut_batch` pops each dynamic batch off the heap under the two
standard cutoffs:

* **size** — a batch is dispatched the instant it reaches
  ``max_batch_requests`` (at the arrival time of the request that filled
  it);
* **linger** — an incomplete batch is dispatched once its oldest request has
  waited ``max_linger_us`` (at that deadline).

Dispatch times are non-decreasing in batch order, which the device clocks
rely on; any backlog shows up downstream as device queueing, not as altered
batch composition.  ``max_batch_requests=1`` is unbatched serving.  Every
draw comes from one generator seeded by the run, in simulation order, so a
run is a pure function of (trace, config, seed).

Each arrival is also where a request's trace begins: when tracing is enabled
(:mod:`repro.tracing`), the front-end roots request ``i``'s ``"request"``
span at its arrival, and the interval up to its batch's dispatch — queue
wait plus any linger — is its ``batcher.queue`` span.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.core.config import ServingConfig
from repro.utils.rng import SeedLike, ensure_rng


def cut_batch(
    pending: List[float], max_batch_requests: int, max_linger_us: float
) -> Tuple[List[float], float]:
    """Pop the next batch off a non-empty min-heap of arrival times (µs).

    Returns the batch's member arrivals, in arrival order, and its dispatch
    time.  An arrival exactly at the linger deadline joins the batch.

    >>> pending = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    >>> cut_batch(pending, 4, 100.0)  # size cutoff: the 4th arrival fills it
    ([0.0, 1.0, 2.0, 3.0], 3.0)
    >>> cut_batch(pending, 4, 100.0)  # linger cutoff: 100 µs after 4.0
    ([4.0, 5.0], 104.0)
    """
    arrivals = [heapq.heappop(pending)]
    deadline_us = arrivals[0] + max_linger_us
    while (
        len(arrivals) < max_batch_requests and pending and pending[0] <= deadline_us
    ):
        arrivals.append(heapq.heappop(pending))
    if len(arrivals) == max_batch_requests:
        return arrivals, arrivals[-1]
    return arrivals, deadline_us


class ArrivalSource:
    """The ``n`` arrivals of one run under ``config.arrival_process``.

    ``pending`` is the min-heap :func:`cut_batch` cuts batches off.
    ``offered_rate_rps`` is the Poisson rate, or a closed loop's nominal
    rate against a zero-latency server, ``clients / think``.
    """

    def __init__(self, config: ServingConfig, n: int, seed: SeedLike) -> None:
        self._rng = ensure_rng(seed)
        if config.arrival_process == "closed-loop":
            self._think_us = config.closed_loop_think_s * 1e6
            self.offered_rate_rps = config.closed_loop_clients / (self._think_us / 1e6)
            # Each client's first request comes one think time after t = 0
            # (a staggered start, not a synchronized burst).
            self.pending = [
                float(self._rng.exponential(self._think_us))
                for _ in range(min(config.closed_loop_clients, n))
            ]
            heapq.heapify(self.pending)
        else:
            self.offered_rate_rps = config.arrival_rate_rps
            gaps_s = self._rng.exponential(1.0 / config.arrival_rate_rps, n)
            self.pending = (np.cumsum(gaps_s) * 1e6).tolist()
        self._unissued = n - len(self.pending)

    def respond(self, response_us: List[float]) -> None:
        """Each answered client thinks, then issues its next request.

        This is the closed loop's feedback, which caps concurrency at the
        population; a Poisson source has nothing left to issue.
        """
        for response in response_us:
            if not self._unissued:
                return
            heapq.heappush(
                self.pending, response + float(self._rng.exponential(self._think_us))
            )
            self._unissued -= 1
