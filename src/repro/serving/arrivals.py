"""Arrival processes for the serving front-end: open loop and closed loop.

The front-end's default is an *open* system: requests arrive on their own
clock whether or not the store has finished the previous ones, which is what
makes device saturation visible as unbounded queueing delay.  The open-loop
process is **Poisson** — memoryless arrivals at a constant rate, the standard
model for large independent user populations ("millions of users" aggregate
to Poisson regardless of per-user behaviour).

The open-loop generator is driven by a seeded
:class:`numpy.random.Generator` and produces a plain array of arrival
timestamps, so a simulation is a pure function of (trace, config, seed) —
the property the golden serving tests pin.

**Closed-loop** arrivals (:class:`ClosedLoopPopulation`) model RPC fan-in: a
fixed population of clients, each with at most one request in flight,
issuing its next request one exponential think time after the previous
response.  Concurrency is capped at the population size by construction, so
saturation slows the clients down (throughput plateaus at
``clients / (think + response)``) instead of growing the queue without
bound.  A closed loop's arrival times depend on *completions*, so they
cannot be precomputed as an array — the serving loop
(:func:`repro.serving.frontend.simulate_serving`) draws them incrementally
from the population object, still deterministically from the seed.

Each arrival timestamp is also where a request's trace begins: when tracing
is enabled (:mod:`repro.tracing`), the front-end roots request ``i``'s
``"request"`` span at ``arrival_us[i]``, and everything between arrival and
batch dispatch is the ``batcher.queue`` span.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ServingConfig
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive


def poisson_arrival_times(
    num_requests: int, rate_rps: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival timestamps (seconds, ascending from ~0) of a Poisson process."""
    check_positive(rate_rps, "rate_rps")
    if num_requests <= 0:
        return np.empty(0, dtype=np.float64)
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    return np.cumsum(gaps)


class ClosedLoopPopulation:
    """A fixed population of think-time clients (closed-loop arrivals).

    Each client holds at most one request in flight: it issues a request,
    waits for the response, thinks for an exponentially distributed time
    with mean ``think_time_s``, and issues the next.  The population size is
    therefore a hard concurrency cap, and the *nominal* offered rate —
    what the clients would offer against an infinitely fast server — is
    ``num_clients / think_time_s``.

    The object is a small draw server for the serving loop: each client's
    first arrival is one think time from ``t = 0`` (a staggered start, not
    a synchronized burst), and :meth:`next_arrival_us` turns a completion
    into that client's next arrival.  All draws come from the one seeded
    generator, in simulation order, so runs stay deterministic.
    """

    def __init__(
        self,
        num_clients: int,
        think_time_s: float,
        rng: np.random.Generator,
    ) -> None:
        check_positive(think_time_s, "think_time_s")
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        self.num_clients = int(num_clients)
        self.think_mean_us = float(think_time_s) * 1e6
        self._rng = rng

    @property
    def nominal_rate_rps(self) -> float:
        """Offered rate against a zero-latency server (``N / think``)."""
        return self.num_clients / (self.think_mean_us / 1e6)

    def initial_arrival_us(self) -> float:
        """One client's first arrival: a think time after the run starts."""
        return float(self._rng.exponential(self.think_mean_us))

    def next_arrival_us(self, completion_us: float) -> float:
        """A client's next arrival, one think time after its response."""
        return completion_us + float(self._rng.exponential(self.think_mean_us))


def arrival_times(
    config: ServingConfig, num_requests: int, seed: SeedLike = None
) -> np.ndarray:
    """Arrival timestamps for ``num_requests`` under ``config`` (seconds).

    The process is driven by a fresh generator from ``seed`` — an integer or
    an existing :class:`numpy.random.Generator` (see
    :func:`repro.utils.rng.ensure_rng`).
    """
    if config.arrival_process == "closed-loop":
        raise ValueError(
            "closed-loop arrivals depend on completions and cannot be "
            "precomputed; the serving loop draws them from a "
            "ClosedLoopPopulation instead"
        )
    return poisson_arrival_times(num_requests, config.arrival_rate_rps, ensure_rng(seed))
