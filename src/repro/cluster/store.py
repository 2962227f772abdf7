"""The cluster store: consistent-hash routing with failure-survival machinery.

:class:`ClusterStore` serves one :class:`~repro.core.bandana.BandanaStore`
from a fleet of simulated :class:`~repro.cluster.node.ClusterNode` instances,
each a shard of it: node *i* serves
:meth:`store.shard(owned_i) <repro.core.bandana.BandanaStore.shard>`, the
tables it owns blocks of on the consistent-hash ring, with the host's
layouts, reset copies of its policies and budgets scaled to the owned
blocks.  The per-table serving state is the store's, on every node: the
cluster builds no engine and no stats of its own, and
:meth:`ClusterStore.table_stats` merges the node stores' stats.  Each request
is split into **shard groups** — maximal runs of ids sharing one replica set
on the ring — fanned out, and fanned back in: the request completes when its
slowest shard group does (latency is the max over touched shards), which is
what makes fan-in stragglers visible at p999.

Robustness machinery, in the order an attempt meets it:

1. **Circuit breaker** (per node): after ``breaker_failure_threshold``
   consecutive failures or slow responses the node is ejected — the router
   skips it without paying a timeout — until ``breaker_cooloff_s`` passes
   and a half-open probe succeeds.  The breaker never ejects the *only*
   available replica: with ``R = 1`` (or every replica open) the attempt is
   force-allowed, so conservative breakers degrade latency, not
   availability.
2. **Crash / loss timeouts with capped exponential backoff**: an attempt
   against a crashed node, or one lost on a degraded link, burns
   :data:`SHARD_TIMEOUT_US`; the retry targets the *next replica* after a
   backoff that doubles per attempt up to :data:`RETRY_BACKOFF_CAP_US`.
3. **Admission control**: an overloaded node sheds the read instantly —
   queue-level load shedding by the host's knobs, the run's
   :class:`~repro.core.config.ServingConfig`: the backlog on the table's
   device exceeds ``admission_queue_slack ×`` the table's SLO (see
   :mod:`repro.cluster.node`) — and the router retries another replica.
4. **Hedged reads**: when a first attempt's latency exceeds the hedge
   delay — the running :data:`HEDGE_QUANTILE` quantile of the trailing
   shard latencies (a window kept sorted as it slides), never below
   :data:`HEDGE_MIN_US` — a duplicate read is fired at another
   replica and the earlier completion wins.  Hedges do real work — they warm the
   secondary's cache — exactly like production hedging.

Routing is a table built once per store: each vector's replica set, from
the ring and the placement.  Every read the router sends — first try, retry
or hedge — goes through one probe, ``ClusterStore._try_replica``, which asks
the fault schedule one question (:meth:`FaultSchedule.at
<repro.cluster.faults.FaultSchedule.at>`) and acts on the answer:
cold-restart check, crashed?, link delay and loss draw, admission check,
then the node serves.  A probe that
did not complete takes the shard group's one retry tail: a crashed node or
a lost read costs :data:`SHARD_TIMEOUT_US` and strikes the breaker at its end, a
shed costs one round trip and no strike, and the next replica is tried
after the current backoff.

A request whose shard group exhausts ``max_attempts`` is **degraded**, not
crashed: it completes with partial features and is counted against
availability.  A fault schedule naming a node the cluster does not have
is rejected at construction (``ValueError``) rather than silently never
applying, and a dispatch time that is negative or not finite is rejected
before anything is routed, served or traced.
The hard equivalence anchor: with one node, ``R = 1`` and no
faults, every request is one unhedged, unretried engine replay in arrival
order — bit-identical counters to :class:`~repro.core.bandana.BandanaStore`
(pinned in ``tests/test_cluster_equivalence.py``).  A request's completion excludes the fan-in overhead
(:data:`~repro.serving.frontend.REQUEST_OVERHEAD_US`), as a host batch's
does: the serving loop adds it to every request's latency, whichever the
backend.

Tracing
-------
Attach a :class:`repro.tracing.Tracer` via :meth:`ClusterStore.set_tracer`
(or pass ``tracing=`` to :func:`repro.cluster.run_scenario`) and every
request records a span tree on the simulated clock: a ``"request"`` root,
one ``shard_group`` span per fan-out (parallel siblings), and one span per
attempt — ``attempt.ok`` with ``node.queue``/``node.service`` children,
``attempt.timeout``/``attempt.link_loss``/``attempt.shed``/
``attempt.breaker_skip`` for the failure modes, ``backoff`` intervals
between retries, and ``hedge.won``/``hedge.lost`` for duplicate reads (a
hedge-won request shows *both* attempts; the beaten primary is flagged as a
speculative loser).  Disabled tracing is the shared no-op singleton — one
attribute load and a branch per site, no allocations, and bit-identical
behavior (golden-pinned).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from typing import Deque, Dict, Iterable, List, Mapping, NamedTuple
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.caching.replay import ReplayStats
from repro.cluster.faults import FaultSchedule, NodeFaults
from repro.cluster.node import ClusterNode, ShardServiceResult
from repro.cluster.ring import ConsistentHashRing
from repro.core.bandana import BandanaStore
from repro.core.config import ClusterConfig, ServingConfig
from repro.serving.frontend import REQUEST_OVERHEAD_US
from repro.tracing.tracer import (
    ATTR_OVERLAP_OK,
    ATTR_PARALLEL,
    NULL_TRACER,
    STAGE_ATTEMPT_BREAKER_SKIP,
    STAGE_ATTEMPT_LINK_LOSS,
    STAGE_ATTEMPT_OK,
    STAGE_ATTEMPT_SHED,
    STAGE_ATTEMPT_TIMEOUT,
    STAGE_BACKOFF,
    STAGE_FANIN_OVERHEAD,
    STAGE_HEDGE_LOST,
    STAGE_HEDGE_WON,
    STAGE_NODE_QUEUE,
    STAGE_NODE_SERVICE,
    STAGE_SHARD_GROUP,
    Tracer,
)
from repro.utils.units import s_to_us
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_array_1d_ints,
    check_id_range,
    check_non_negative,
)

#: Healthy one-way network delay between the router and a node (paid twice
#: per attempt).
LINK_DELAY_US = 2.0
#: How long the router waits for a shard read before declaring the attempt
#: dead (crashed node, lost packet) and retrying.
SHARD_TIMEOUT_US = 1000.0
#: First retry backoff and its cap: the backoff doubles per attempt.
RETRY_BACKOFF_US = 100.0
RETRY_BACKOFF_CAP_US = 2000.0
#: The hedge delay is this quantile of the trailing shard latencies ...
HEDGE_QUANTILE = 0.99
#: ... and never below this floor.
HEDGE_MIN_US = 100.0
#: Size of the trailing shard-latency window behind the hedge-delay estimate.
_HEDGE_WINDOW = 512
#: How often (in samples) the hedge-delay quantile is recomputed.
_HEDGE_REFRESH = 32


def _linear_quantile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-quantile of an ascending, non-empty sequence of floats.

    Linear interpolation between the two order statistics around
    ``(n - 1) * q`` — ``float(np.percentile(ordered, q * 100.0))`` bit for
    bit (NumPy's round trip through per cent and the two-sided formula of
    its ``_lerp`` included), as scalar arithmetic on a sorted list.
    """
    last = len(ordered) - 1
    virtual = last * (q * 100.0 / 100.0)
    if virtual >= last:
        return ordered[last]
    below = int(virtual)
    gamma = virtual - below
    a, b = ordered[below], ordered[below + 1]
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


@dataclass
class ClusterCounters:
    """Cumulative robustness accounting of one cluster store."""

    requests_total: int = 0
    requests_ok: int = 0
    requests_degraded: int = 0
    shard_groups: int = 0
    shard_groups_failed: int = 0
    shard_attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    link_losses: int = 0
    sheds: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_lost: int = 0
    breaker_skips: int = 0
    breaker_ejections: int = 0
    cold_restarts: int = 0

    @property
    def availability(self) -> float:
        """Fraction of requests fully served (no degraded shard groups)."""
        if self.requests_total == 0:
            return 1.0
        return self.requests_ok / self.requests_total

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests_total": self.requests_total,
            "requests_ok": self.requests_ok,
            "requests_degraded": self.requests_degraded,
            "availability": self.availability,
            "shard_groups": self.shard_groups,
            "shard_groups_failed": self.shard_groups_failed,
            "shard_attempts": self.shard_attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "link_losses": self.link_losses,
            "sheds": self.sheds,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedges_lost": self.hedges_lost,
            "breaker_skips": self.breaker_skips,
            "breaker_ejections": self.breaker_ejections,
            "cold_restarts": self.cold_restarts,
        }


@dataclass(frozen=True)
class RequestOutcome:
    """Fan-in result of one multi-table request."""

    arrival_us: float
    completion_us: float
    shard_groups: int
    failed_groups: int


class _Attempt(NamedTuple):
    """What one read sent to one replica did (``ClusterStore._try_replica``).

    ``outcome`` is ``"down"`` (crashed node, nothing was sent),
    ``"link_loss"`` (lost in flight), ``"shed"`` (refused by admission
    control in front of ``queue_wait_us`` of backlog) or ``"completed"``;
    ``service`` is set exactly when the read completed.
    """

    node: int
    start_us: float
    outcome: str
    link_us: float
    arrive_us: float
    queue_wait_us: float
    service: Optional[ShardServiceResult]


#: The span of a primary attempt that did not complete, by outcome.
_FAILURE_STAGES = {
    "down": STAGE_ATTEMPT_TIMEOUT,
    "link_loss": STAGE_ATTEMPT_LINK_LOSS,
    "shed": STAGE_ATTEMPT_SHED,
}


class _CircuitBreaker:
    """Consecutive-strike breaker for one node (see module docstring)."""

    def __init__(self, failure_threshold: int, cooloff_us: int) -> None:
        self.failure_threshold = int(failure_threshold)
        self.cooloff_us = int(cooloff_us)
        self.strikes = 0
        self.open_until_us = 0.0

    def allows(self, now_us: float) -> bool:
        """Closed, or open long enough that a half-open probe is due."""
        return now_us >= self.open_until_us

    def strike(self, now_us: float) -> bool:
        """Record a failure/slow response; returns True if the breaker opened."""
        self.strikes += 1
        if self.strikes >= self.failure_threshold:
            self.open_until_us = now_us + self.cooloff_us
            self.strikes = 0
            return True
        return False

    def succeed(self) -> None:
        self.strikes = 0


class ClusterStore:
    """A simulated multi-node, replicated embedding store (see module docstring).

    Parameters
    ----------
    store:
        The single-host store the cluster serves; its resolved placement,
        policies and cache budgets define the tables.  Node *i* serves
        ``store.shard(owned_i)``, the blocks the ring gives it.
    config:
        Topology and robustness knobs.
    faults:
        Optional fault schedule; ``None`` means a healthy cluster.
    serving:
        The run's serving knobs; a node reads ``devices_per_host`` (its
        bank's size) and sheds by ``admission_queue_slack``, as a host
        does.  Defaults to ``ServingConfig()``.
    """

    def __init__(
        self,
        store: BandanaStore,
        config: Optional[ClusterConfig] = None,
        faults: Optional[FaultSchedule] = None,
        serving: Optional[ServingConfig] = None,
    ) -> None:
        if not store.tables:
            raise ValueError("the cluster needs at least one table")
        self.store = store
        self.config = config or ClusterConfig()
        self.faults = faults or FaultSchedule(())
        self.serving = serving or ServingConfig()
        num_nodes = self.config.num_nodes
        for event in self.faults.events:
            if event.node >= num_nodes:
                raise ValueError(
                    f"{type(event).__name__} names node {event.node}, but the "
                    f"cluster has {num_nodes} nodes"
                )
        self.ring = ConsistentHashRing(
            [f"node{i}" for i in range(num_nodes)],
            virtual_nodes=self.config.virtual_nodes,
        )
        #: Effective replication (``R`` clamped to the cluster size).
        self.replication = min(self.config.replication, num_nodes)
        # Block-ownership tables: name -> (num_blocks, R) node-index array.
        self._owners: Dict[str, np.ndarray] = {
            name: self.ring.block_owners(name, state.layout.num_blocks, self.replication)
            for name, state in store.tables.items()
        }
        # Routing is a pure function of the ring and the placement, so it is
        # tabulated once: per table the distinct replica sets — the rows of
        # ``np.unique(owners, axis=0)``, lexicographic, as tuples of node
        # indices — and, per vector, the index of its block's row.
        self._routes: Dict[str, Tuple[np.ndarray, List[Tuple[int, ...]]]] = {}
        owned: List[Dict[str, int]] = [{} for _ in range(num_nodes)]
        for name, owners in self._owners.items():
            layout = store.tables[name].layout
            rows, block_group = np.unique(owners, axis=0, return_inverse=True)
            vector_group = block_group.reshape(-1)[
                layout.block_of(np.arange(layout.num_vectors, dtype=np.int64))
            ]
            self._routes[name] = (vector_group, [tuple(row) for row in rows.tolist()])
            counts = np.bincount(owners.ravel(), minlength=num_nodes)
            for node, count in enumerate(counts.tolist()):
                if count:
                    owned[node][name] = count
        self.nodes: List[ClusterNode] = [
            ClusterNode(i, store.shard(owned[i]), self.serving.devices_per_host)
            for i in range(num_nodes)
        ]
        self._breakers = [
            _CircuitBreaker(
                self.config.breaker_failure_threshold,
                s_to_us(self.config.breaker_cooloff_s),
            )
            for _ in range(num_nodes)
        ]
        self.counters = ClusterCounters()
        self._clock_us = 0.0
        self._rng = ensure_rng(self.config.seed)
        #: The trailing shard latencies, in arrival order and sorted.
        self._latency_window: Deque[float] = deque()
        self._latency_sorted: List[float] = []
        self._hedge_delay_us = HEDGE_MIN_US
        self._samples_since_refresh = 0
        #: Span recorder (``repro.tracing``); the shared no-op singleton
        #: unless a caller attaches a real tracer via :meth:`set_tracer`.
        self.tracer: Tracer = NULL_TRACER

    # ------------------------------------------------------------------ build
    @classmethod
    def from_store(
        cls,
        store: BandanaStore,
        config: Optional[ClusterConfig] = None,
        faults: Optional[FaultSchedule] = None,
        serving: Optional[ServingConfig] = None,
    ) -> "ClusterStore":
        """Build a cluster serving the same tables as a single-host store.

        The same as the constructor; ``config`` and ``serving`` default to
        ``ClusterConfig()`` and ``ServingConfig()``.
        """
        return cls(store, config=config, faults=faults, serving=serving)

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach a span recorder (``None`` detaches back to the no-op)."""
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def rebase_clocks(self) -> None:
        """Zero all simulated clocks and counters, keeping caches warm.

        Scenario runs warm the cluster with a sequential prefix replay, then
        rebase so the measured open-loop run starts at ``t = 0`` with warm
        caches but no phantom backlog from the warm-up — the cold-start miss
        surge would otherwise dominate every percentile.  Engine stats are
        cumulative across the rebase; callers measure deltas.
        """
        self._clock_us = 0.0
        for node in self.nodes:
            node.bank.rebase(0.0)
            node.last_seen_us = 0.0
        # Breaker open-until timestamps and hedge-delay samples live in the
        # pre-rebase clock domain; carrying them across would leave a node
        # spuriously ejected (or a stale hedge delay) at measured t=0.
        for breaker in self._breakers:
            breaker.strikes = 0
            breaker.open_until_us = 0.0
        self._latency_window.clear()
        self._latency_sorted.clear()
        self._samples_since_refresh = 0
        self._hedge_delay_us = HEDGE_MIN_US
        self.counters = ClusterCounters()

    # ---------------------------------------------------------------- serving
    def serve_request(
        self,
        request: Mapping[str, Iterable[int]],
        now_us: Optional[float] = None,
    ) -> RequestOutcome:
        """Serve one multi-table request dispatched at ``now_us``.

        ``now_us=None`` is sequential-replay mode: the request is issued the
        moment the previous one's response left the router, fan-in overhead
        included (queues are empty, nothing sheds),
        which is the schedule equivalence tests compare against single-store
        replay.  Open-loop callers pass real dispatch timestamps, making
        node backlog — and therefore admission control — real.  The
        returned completion excludes the fan-in overhead (traced as the
        ``fanin.overhead`` span after it); the serving loop adds it to the
        latency.
        """
        dispatch_us = self._clock_us if now_us is None else float(now_us)
        # Validate and route before the root span opens and before anything
        # is served: a rejected request must leave no counted lookup and no
        # pending trace behind for the next one to trip on.
        if not 0.0 <= dispatch_us < math.inf:
            check_non_negative(dispatch_us, "now_us")
        groups = self._route(request)
        tracer = self.tracer
        rid = self.counters.requests_total
        if tracer.enabled:
            tracer.begin_request(rid, dispatch_us)
        completion_us = dispatch_us
        failed = 0
        for table_name, replicas, ids in groups:
            group_span_id = -1
            if tracer.enabled:
                group_span_id = tracer.open_span(
                    rid,
                    STAGE_SHARD_GROUP,
                    dispatch_us,
                    table=table_name,
                    replicas=replicas,
                    num_ids=int(ids.size),
                    **{ATTR_PARALLEL: True},
                )
            ok, group_completion = self._serve_shard_group(
                table_name, replicas, ids, dispatch_us, rid, group_span_id
            )
            if tracer.enabled:
                tracer.close_span(rid, group_span_id, group_completion, ok=ok)
            if group_completion > completion_us:
                completion_us = group_completion
            if not ok:
                failed += 1
        self.counters.requests_total += 1
        self.counters.shard_groups += len(groups)
        self.counters.shard_groups_failed += failed
        if failed:
            self.counters.requests_degraded += 1
        else:
            self.counters.requests_ok += 1
        responded_us = completion_us + REQUEST_OVERHEAD_US
        self._clock_us = max(self._clock_us, responded_us)
        if tracer.enabled:
            tracer.span(rid, STAGE_FANIN_OVERHEAD, completion_us, responded_us)
            tracer.end_request(rid, responded_us, degraded=failed > 0)
        return RequestOutcome(
            arrival_us=dispatch_us,
            completion_us=completion_us,
            shard_groups=len(groups),
            failed_groups=failed,
        )

    def replay_requests(self, requests: Iterable[Mapping[str, Iterable[int]]]) -> None:
        """Replay a request stream back-to-back (sequential mode)."""
        for request in requests:
            self.serve_request(request)

    # ---------------------------------------------------------------- routing
    def _route(
        self, request: Mapping[str, Iterable[int]]
    ) -> List[Tuple[str, Tuple[int, ...], np.ndarray]]:
        """Split a request into (table, replica-set, ids) shard groups.

        Ids sharing a replica set stay in one group **in request order**, so
        the per-engine replay order matches single-store serving exactly;
        groups of one table come in the replica sets' lexicographic order.

        This is the request path's one id check, the host's
        (:class:`~repro.core.bandana.BandanaStore`): integer ids
        (``TypeError`` for floats and bools, never truncated) in range
        (``IndexError``), made for the whole request before anything is
        served: nodes replay routed ids unvalidated, and a rejected request
        leaves every engine, device, counter and clock untouched.
        """
        groups: List[Tuple[str, Tuple[int, ...], np.ndarray]] = []
        routes = self._routes
        for table_name, raw_ids in request.items():
            if table_name not in routes:
                raise KeyError(
                    f"unknown table {table_name!r}; known tables: {sorted(routes)}"
                )
            vector_group, replica_sets = routes[table_name]
            ids = check_array_1d_ints(raw_ids, "vector_ids")
            if ids.size == 0:
                continue
            check_id_range(ids, vector_group.size)
            group_of = vector_group[ids]
            ids = ids[group_of.argsort(kind="stable")]
            start = 0
            for group, size in enumerate(np.bincount(group_of).tolist()):
                if size:
                    end = start + size
                    groups.append((table_name, replica_sets[group], ids[start:end]))
                    start = end
        return groups

    # ------------------------------------------------------------ shard serve
    def _serve_shard_group(
        self,
        table_name: str,
        replicas: Sequence[int],
        ids: np.ndarray,
        t0_us: float,
        rid: int,
        group_span_id: int,
    ) -> Tuple[bool, float]:
        """Serve one shard group with retries/hedging; see module docstring.

        ``rid``/``group_span_id`` anchor the per-attempt spans when a tracer
        is attached (the span id is ``-1`` when none is): every attempt —
        including ones that burned a timeout, were shed, or were skipped on
        an open breaker — becomes a span under the group, so a traced
        request shows *why* its group was slow, not just that it was.
        """
        config = self.config
        counters = self.counters
        tracer = self.tracer
        num_replicas = len(replicas)
        backoff_us = RETRY_BACKOFF_US
        t = t0_us
        consecutive_skips = 0
        attempts_made = 0
        for attempt in range(config.max_attempts):
            node_index = replicas[attempt % num_replicas]
            breaker = self._breakers[node_index]
            # The breaker never ejects the only viable replica: with R = 1,
            # or after a full cycle of open breakers, force the attempt.
            force = num_replicas == 1 or consecutive_skips >= num_replicas
            if not force and not breaker.allows(t):
                counters.breaker_skips += 1
                consecutive_skips += 1
                if tracer.enabled:
                    tracer.span(
                        rid,
                        STAGE_ATTEMPT_BREAKER_SKIP,
                        t,
                        t,
                        parent_id=group_span_id,
                        node=node_index,
                    )
                continue
            consecutive_skips = 0
            if attempts_made:
                counters.retries += 1
            attempts_made += 1
            counters.shard_attempts += 1
            tried = self._try_replica(node_index, table_name, ids, t)
            service = tried.service
            if service is None:
                if tried.outcome == "shed":
                    # Fast rejection: the node answers "busy" after one
                    # round trip instead of queueing the read unboundedly.
                    counters.sheds += 1
                    cost_us = 2.0 * tried.link_us
                else:
                    # A crashed node or a lost read burns the whole timeout.
                    if tried.outcome == "link_loss":
                        counters.link_losses += 1
                    counters.timeouts += 1
                    cost_us = SHARD_TIMEOUT_US
                    if breaker.strike(t + cost_us):
                        counters.breaker_ejections += 1
                if tracer.enabled:
                    failed_us = t + cost_us
                    attrs: Dict[str, object] = {"node": node_index}
                    if tried.outcome == "shed":
                        attrs["queue_wait_us"] = tried.queue_wait_us
                    self._attempt_spans(
                        rid,
                        group_span_id,
                        _FAILURE_STAGES[tried.outcome],
                        tried,
                        failed_us,
                        **attrs,
                    )
                    tracer.span(
                        rid,
                        STAGE_BACKOFF,
                        failed_us,
                        failed_us + backoff_us,
                        parent_id=group_span_id,
                    )
                t += cost_us + backoff_us
                backoff_us = min(2.0 * backoff_us, RETRY_BACKOFF_CAP_US)
                continue
            attempt_latency_us = 2.0 * tried.link_us + (
                service.queue_wait_us + service.service_us
            )
            completion_us = t + attempt_latency_us
            # Slow strikes judge *service* time, not queue wait: a backlog
            # is cluster-wide overload (admission control's domain), not
            # evidence this replica is broken — striking on totals would
            # eject healthy nodes exactly when none can be spared.
            if service.service_us > config.breaker_slow_threshold_us:
                if num_replicas > 1 and breaker.strike(completion_us):
                    counters.breaker_ejections += 1
            else:
                breaker.succeed()
            hedge: Optional[_Attempt] = None
            hedge_won = False
            if (
                attempt == 0
                and config.hedge_enabled
                and num_replicas > 1
                and attempt_latency_us > self._hedge_delay_us
            ):
                hedge = self._hedge(
                    table_name, replicas, node_index, ids, t0_us + self._hedge_delay_us
                )
                if hedge is not None:
                    # A fired hedge is a launched hedge whatever became of
                    # it — the duplicate read cost the router a round trip
                    # and (when served) warmed the secondary's cache.
                    counters.hedges_launched += 1
                    hedge_us = hedge.start_us
                    if hedge.service is not None:
                        hedge_us = (
                            hedge.start_us
                            + 2.0 * hedge.link_us
                            + (hedge.service.queue_wait_us + hedge.service.service_us)
                        )
                        # A tie is a win: the hedge returned no later than
                        # the primary, so its result was usable.
                        hedge_won = hedge_us <= completion_us
                    if hedge_won:
                        counters.hedges_won += 1
                    else:
                        counters.hedges_lost += 1
            if tracer.enabled:
                # The read that lost the race is the speculative loser and
                # carries ATTR_OVERLAP_OK: a primary beaten by its hedge ends
                # after the group closes at the hedge's completion.
                attrs = {"node": node_index}
                if hedge_won:
                    attrs[ATTR_OVERLAP_OK] = True
                self._attempt_spans(
                    rid, group_span_id, STAGE_ATTEMPT_OK, tried, completion_us, **attrs
                )
                if hedge is not None:
                    attrs = {"node": hedge.node, "outcome": hedge.outcome}
                    if not hedge_won:
                        attrs[ATTR_OVERLAP_OK] = True
                    self._attempt_spans(
                        rid,
                        group_span_id,
                        STAGE_HEDGE_WON if hedge_won else STAGE_HEDGE_LOST,
                        hedge,
                        hedge_us,
                        **attrs,
                    )
            if hedge_won:
                completion_us = hedge_us
            self._record_shard_latency(completion_us - t0_us)
            return True, completion_us
        return False, t

    def _try_replica(
        self, node_index: int, table_name: str, ids: np.ndarray, start_us: float
    ) -> _Attempt:
        """Send one shard read to one replica at ``start_us``; see :class:`_Attempt`.

        The only place a read meets the faults and the node: a cold restart
        due since the node was last touched, a crash, the link's delay and
        loss draw, admission control (the host's knobs, off when
        ``admission_queue_slack`` is ``None``), then the node.
        """
        node = self.nodes[node_index]
        faults = self._maybe_recover(node, start_us)
        if faults.down:
            return _Attempt(node_index, start_us, "down", 0.0, start_us, 0.0, None)
        link_us = LINK_DELAY_US + faults.extra_delay_us
        arrive_us = start_us + link_us
        loss_prob = faults.loss_prob
        if loss_prob > 0.0 and self._rng.random() < loss_prob:
            return _Attempt(
                node_index, start_us, "link_loss", link_us, arrive_us, 0.0, None
            )
        slack = self.serving.admission_queue_slack
        if slack is not None:
            wait_us = node.bank.queue_wait_us(arrive_us, table_name)
            if wait_us > slack * self.serving.slo_latency_us:
                return _Attempt(
                    node_index, start_us, "shed", link_us, arrive_us, wait_us, None
                )
        # validated=True (positionally): _route checked the ids.
        service = node.serve(table_name, ids, arrive_us, faults.multiplier, True)
        return _Attempt(
            node_index,
            start_us,
            "completed",
            link_us,
            arrive_us,
            service.queue_wait_us,
            service,
        )

    def _hedge(
        self,
        table_name: str,
        replicas: Sequence[int],
        primary_index: int,
        ids: np.ndarray,
        start_us: float,
    ) -> Optional[_Attempt]:
        """Fire one duplicate read at the first viable secondary replica.

        ``None`` when no secondary was viable (every candidate ejected or
        down): nothing was launched.  Otherwise the hedge fired, and the
        attempt says what became of it — a lost or shed duplicate still
        counts as launched.
        """
        breakers = self._breakers
        for node_index in replicas:
            if node_index != primary_index and breakers[node_index].allows(start_us):
                hedge = self._try_replica(node_index, table_name, ids, start_us)
                if hedge.outcome != "down":
                    return hedge
        return None

    def _attempt_spans(
        self,
        rid: int,
        parent_id: int,
        name: str,
        attempt: _Attempt,
        end_us: float,
        **attributes: object,
    ) -> None:
        """Record one attempt's span, with its node's queue/service split if served.

        Only called with a real tracer attached.
        """
        tracer = self.tracer
        span_id = tracer.span(
            rid, name, attempt.start_us, end_us, parent_id=parent_id, **attributes
        )
        service = attempt.service
        if service is not None:
            served_us = attempt.arrive_us + service.queue_wait_us
            tracer.span(
                rid, STAGE_NODE_QUEUE, attempt.arrive_us, served_us, parent_id=span_id
            )
            tracer.span(
                rid,
                STAGE_NODE_SERVICE,
                served_us,
                served_us + service.service_us,
                parent_id=span_id,
            )

    # ----------------------------------------------------------------- faults
    def _maybe_recover(self, node: ClusterNode, now_us: float) -> NodeFaults:
        """Ask the schedule about ``node`` at ``now_us``; returns its answer.

        Cold-restarts the node the first time it is touched after a crash,
        and advances the node's ``last_seen_us`` to ``now_us``.
        """
        last_seen_us = node.last_seen_us
        faults = self.faults.at(node.index, last_seen_us, now_us)
        if faults.recovered:
            node.cold_restart(now_us)
            self.counters.cold_restarts += 1
        if now_us > last_seen_us:
            node.last_seen_us = now_us
        return faults

    # ---------------------------------------------------------------- hedging
    def _record_shard_latency(self, latency_us: float) -> None:
        """Slide the trailing window by one sample; refresh the hedge delay.

        The window is kept twice — in arrival order, to know which sample
        leaves, and sorted, for the quantile — so no refresh sorts it.
        """
        window = self._latency_window
        ordered = self._latency_sorted
        if len(window) == _HEDGE_WINDOW:
            del ordered[bisect_left(ordered, window.popleft())]
        window.append(latency_us)
        insort(ordered, latency_us)
        self._samples_since_refresh += 1
        if self._samples_since_refresh >= _HEDGE_REFRESH:
            self._samples_since_refresh = 0
            self._hedge_delay_us = max(
                HEDGE_MIN_US, _linear_quantile(ordered, HEDGE_QUANTILE)
            )

    # ---------------------------------------------------------------- metrics
    def table_stats(self) -> Dict[str, ReplayStats]:
        """Per-table replay counters, merged over the node stores (fresh objects)."""
        merged: Dict[str, ReplayStats] = {}
        for node in self.nodes:
            for name, stats in node.store.table_stats().items():
                merged[name] = (
                    merged[name].merge(stats) if name in merged else replace(stats)
                )
        return {name: merged[name] for name in self._routes}

    def aggregate_stats(self) -> ReplayStats:
        """Cluster-wide replay counters (sum over tables and nodes)."""
        return reduce(ReplayStats.merge, self.table_stats().values())

    def node_blocks_read(self) -> List[int]:
        """Per-node NVM blocks read — the cluster's load-skew fingerprint."""
        return [node.blocks_read() for node in self.nodes]
