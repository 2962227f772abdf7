"""One arrival source ≡ the two batchers it replaced.

:class:`~repro.serving.arrivals.ArrivalSource` keeps every pending arrival of
a run on one min-heap and :func:`~repro.serving.arrivals.cut_batch` cuts
each dynamic batch off it, for Poisson and closed-loop arrivals alike.  It
replaced two batchers with the same size-and-linger rule, kept here as
oracles: the open-loop ``form_batches`` over a precomputed Poisson array
(:func:`_poisson_batches_reference`) and the closed-loop population's
pending-arrivals heap (:class:`_ClosedLoopReference`).  A Hypothesis test
drives the source and an oracle with the same responses and compares every
batch's members and dispatch time exactly; a digest grid pins the serving
reports and spans of both processes, both backends and both tracing modes
(ledger entry ``serving_grid_digests``, captured from the two batchers).
"""

import hashlib
import heapq
import itertools
from functools import partial
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ServingConfig
from repro.cluster import run_scenario
from repro.core.config import ClusterConfig
from repro.serving import simulate_serving
from repro.serving.arrivals import ArrivalSource, cut_batch
from tests.conftest import fold_run, golden
from tests.test_serving import build_store_and_trace

Batches = List[Tuple[List[float], float]]


# -------------------------------------------------------------------- oracles
def _form_batches_reference(
    arrival_us: np.ndarray, max_batch_requests: int, max_linger_us: float
) -> List[Tuple[int, int, float]]:
    """The open-loop batcher the heap replaced: ``(start, stop, dispatch_us)``.

    Everything that arrives by the oldest request's linger deadline is
    eligible; the size cutoff fires the moment the batch fills.
    """
    n = int(arrival_us.size)
    batches = []
    i = 0
    while i < n:
        deadline = arrival_us[i] + max_linger_us
        eligible = int(np.searchsorted(arrival_us, deadline, side="right"))
        stop = min(i + max_batch_requests, eligible)
        if stop - i == max_batch_requests:
            dispatch = float(arrival_us[stop - 1])
        else:
            dispatch = float(deadline)
        batches.append((i, stop, dispatch))
        i = stop
    return batches


def _poisson_batches_reference(config: ServingConfig, n: int, seed: int) -> Batches:
    """Every batch of an open-loop run: a precomputed array, then the batcher."""
    if n <= 0:
        return []
    gaps_s = np.random.default_rng(seed).exponential(1.0 / config.arrival_rate_rps, size=n)
    arrival_us = np.cumsum(gaps_s) * 1e6
    return [
        ([float(t) for t in arrival_us[start:stop]], dispatch_us)
        for start, stop, dispatch_us in _form_batches_reference(
            arrival_us, config.max_batch_requests, config.max_linger_us
        )
    ]


class _ClosedLoopReference:
    """The closed-loop source the heap replaced: a think-time population.

    Each client's first arrival is one think time from ``t = 0``; every
    response schedules that client's next arrival one think time later,
    until ``n`` requests have been issued.
    """

    def __init__(self, config: ServingConfig, n: int, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._think_mean_us = float(config.closed_loop_think_s) * 1e6
        self.offered_rate_rps = config.closed_loop_clients / (self._think_mean_us / 1e6)
        self._max_batch_requests = config.max_batch_requests
        self._max_linger_us = config.max_linger_us
        self._pending: List[float] = []
        self._unissued = n
        for _ in range(min(config.closed_loop_clients, n)):
            heapq.heappush(
                self._pending, float(self._rng.exponential(self._think_mean_us))
            )
            self._unissued -= 1

    def next_batch(self) -> Tuple[List[float], float]:
        pending = self._pending
        arrivals = [heapq.heappop(pending)]
        deadline_us = arrivals[0] + self._max_linger_us
        while (
            len(arrivals) < self._max_batch_requests
            and pending
            and pending[0] <= deadline_us
        ):
            arrivals.append(heapq.heappop(pending))
        if len(arrivals) == self._max_batch_requests:
            return arrivals, arrivals[-1]
        return arrivals, deadline_us

    def respond(self, response_us: List[float]) -> None:
        for response in response_us:
            if self._unissued:
                completion = response + float(self._rng.exponential(self._think_mean_us))
                heapq.heappush(self._pending, completion)
                self._unissued -= 1


def drive(source, next_batch, n: int, service_us: float) -> Batches:
    """Run a source to ``n`` requests; member ``k`` of a batch responds
    ``(k + 1) × service_us`` after its dispatch."""
    batches: Batches = []
    issued = 0
    while issued < n:
        members, dispatch_us = next_batch()
        batches.append((list(members), dispatch_us))
        issued += len(members)
        source.respond([dispatch_us + (k + 1) * service_us for k in range(len(members))])
    return batches


# ---------------------------------------------------------------- equivalence
class TestArrivalSourceMatchesOracles:
    @settings(max_examples=200, deadline=None)
    @given(
        process=st.sampled_from(["poisson", "closed-loop"]),
        n=st.integers(0, 300),
        rate=st.floats(100.0, 1e7),
        clients=st.integers(1, 64),
        think_s=st.floats(1e-6, 0.1),
        max_batch=st.integers(1, 32),
        linger=st.one_of(st.just(0.0), st.floats(0.0, 5000.0)),
        seed=st.integers(0, 2**32 - 1),
        service_us=st.floats(0.0, 5000.0),
    )
    def test_batches_and_dispatch_times_match(
        self, process, n, rate, clients, think_s, max_batch, linger, seed, service_us
    ):
        config = ServingConfig(
            arrival_process=process,
            arrival_rate_rps=rate,
            closed_loop_clients=clients,
            closed_loop_think_s=think_s,
            max_batch_requests=max_batch,
            max_linger_us=linger,
        )
        source = ArrivalSource(config, n, seed=seed)
        got = drive(
            source,
            lambda: cut_batch(source.pending, max_batch, linger),
            n,
            service_us,
        )
        if process == "poisson":
            assert source.offered_rate_rps == rate
            assert got == _poisson_batches_reference(config, n, seed)
        else:
            oracle = _ClosedLoopReference(config, n, seed)
            assert source.offered_rate_rps == oracle.offered_rate_rps
            assert got == drive(oracle, oracle.next_batch, n, service_us)
        assert source.pending == []


    @settings(max_examples=200, deadline=None)
    @given(
        ticks=st.lists(st.integers(0, 40), max_size=60),
        max_batch=st.integers(1, 8),
        linger=st.integers(0, 12),
    )
    def test_cut_batch_matches_form_batches_on_tied_arrivals(
        self, ticks, max_batch, linger
    ):
        # Whole-µs arrivals make ties and arrivals exactly at a linger
        # deadline common, which random Poisson draws almost never produce.
        arrival_us = np.cumsum(np.asarray(ticks, dtype=np.float64))
        pending = arrival_us.tolist()
        got = []
        while pending:
            got.append(cut_batch(pending, max_batch, float(linger)))
        assert got == [
            ([float(t) for t in arrival_us[start:stop]], dispatch_us)
            for start, stop, dispatch_us in _form_batches_reference(
                arrival_us, max_batch, float(linger)
            )
        ]


# --------------------------------------------------------------- digest grid
#: ``(max_batch_requests, max_linger_us)`` of the grid.  With zero linger a
#: batch holds only simultaneous arrivals, so (1, 0) and (4, 0) agree.
GRID_BATCHING = ((1, 0.0), (4, 0.0), (8, 300.0), (16, 500.0))
GRID_RATES = (2_000.0, 50_000.0, 2_000_000.0)
GRID_CLIENTS = 8


def _grid_config(process, max_batch, linger, rate, slack):
    """A grid point; a closed loop offers ``rate`` nominally."""
    return ServingConfig(
        arrival_process=process,
        arrival_rate_rps=rate,
        closed_loop_clients=GRID_CLIENTS,
        closed_loop_think_s=GRID_CLIENTS / rate,
        max_batch_requests=max_batch,
        max_linger_us=linger,
        admission_queue_slack=slack,
        seed=11,
    )


def serving_grid_digests():
    """sha256 digests of the serving grid, one per group of runs.

    ``simulate_serving`` over process × (batch, linger) × rate × admission
    slack {off, 1.0} × tracing {off, on} (one digest per process and
    batching), both processes at 0, 1 and 7 requests, and ``run_scenario``
    under three fault scenarios, traced and untraced.  Captured from the two
    batchers this source replaced; they change only when arrivals, batching,
    serving, the report's keys, span shapes or the fixture change.
    """
    store, trace = build_store_and_trace(seed=3)
    digests = {}
    for process in ("poisson", "closed-loop"):
        for max_batch, linger in GRID_BATCHING:
            sha = hashlib.sha256()
            for rate, slack, traced in itertools.product(
                GRID_RATES, (None, 1.0), (False, True)
            ):
                config = _grid_config(process, max_batch, linger, rate, slack)
                fold_run(sha, partial(simulate_serving, store, trace, config), traced)
            digests[f"{process}/b{max_batch}-l{linger:g}"] = sha.hexdigest()
    sha = hashlib.sha256()
    for process, n in itertools.product(("poisson", "closed-loop"), (0, 1, 7)):
        config = _grid_config(process, 4, 300.0, 50_000.0, None)
        fold_run(sha, partial(simulate_serving, store, trace, config, num_requests=n))
    digests["num_requests"] = sha.hexdigest()
    for scenario in ("none", "degraded_cluster", "slow_node"):
        sha = hashlib.sha256()
        for traced in (False, True):
            run = partial(
                run_scenario,
                store,
                trace,
                scenario,
                ClusterConfig(num_nodes=4, replication=2),
                ServingConfig(arrival_rate_rps=20_000.0, seed=11),
                num_requests=120,
                scenario_overrides=dict(start_s=0.001, duration_s=0.003),
            )
            fold_run(sha, run, traced)
        digests[f"scenario/{scenario}"] = sha.hexdigest()
    return digests


def test_serving_grid_is_pinned():
    golden("serving_grid_digests")
