"""Fault injection: scheduled node and link failures for the cluster store.

A :class:`FaultSchedule` is a declarative list of fault events, each active
over a window of simulated time:

* :class:`NodeCrash` — the node is unreachable; attempts against it burn the
  shard timeout.  On recovery the node restarts **cold**: its DRAM caches
  and policy state are gone (the router's retries keep requests alive, but
  the post-recovery miss surge is real and visible in the tail).
* :class:`SlowNode` — the node serves, but every service time is multiplied
  by ``multiplier`` (degraded device, CPU contention, noisy neighbour).
  Persistently slow nodes are what the circuit breaker ejects.
* :class:`DegradedLink` — the router↔node link adds ``extra_delay_us`` each
  way and drops each attempt with probability ``loss_prob`` (the dropped
  attempt burns the shard timeout and is retried with backoff).

The router asks the schedule one question per attempt,
:meth:`FaultSchedule.at`, which answers crash, recovery, link and slowdown
together (:class:`NodeFaults`) from one scan of that node's own windows; a
node no event names answers :data:`HEALTHY` without a scan.

Loss draws come from an explicit :class:`numpy.random.Generator` owned by
the cluster store (seeded from ``ClusterConfig.seed``), so a scenario run is
a pure function of (trace, configs, schedule, seed) — the property the chaos
tests pin.

The module also ships a small **scenario catalog**
(:data:`SCENARIOS` / :func:`make_scenario`): named, parameterised schedules
(``"none"``, ``"crash_recover"``, ``"slow_node"``, ``"flaky_link"``,
``"degraded_cluster"``) used by the chaos test-suite and by
``benchmarks/bench_cluster_failures.py``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Annotated, Callable, Dict, Iterable, List, NamedTuple, Tuple, Union

from repro.utils.units import s_to_us
from repro.utils.validation import (
    AtLeast,
    Fraction,
    NonNegative,
    Positive,
    check_int_at_least,
    validate_fields,
)


def _check_window(start_s: float, end_s: float) -> None:
    if end_s <= start_s:
        raise ValueError(f"end_s must be > start_s, got [{start_s}, {end_s}]")


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` is down (unreachable) during ``[start_s, end_s)``."""

    node: Annotated[int, AtLeast(0)]
    start_s: Annotated[float, NonNegative]
    end_s: Annotated[float, Positive]

    def __post_init__(self) -> None:
        validate_fields(self)
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class SlowNode:
    """Node ``node`` serves ``multiplier``× slower during ``[start_s, end_s)``."""

    node: Annotated[int, AtLeast(0)]
    start_s: Annotated[float, NonNegative]
    end_s: Annotated[float, Positive]
    #: At least 1: a fault cannot speed a node up.
    multiplier: Annotated[float, AtLeast(1.0)] = 10.0

    def __post_init__(self) -> None:
        validate_fields(self)
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class DegradedLink:
    """The router↔``node`` link degrades during ``[start_s, end_s)``.

    ``extra_delay_us`` is added to each direction of every attempt;
    ``loss_prob`` is the per-attempt probability the attempt is lost in
    flight (burning the shard timeout and forcing a retry).
    """

    node: Annotated[int, AtLeast(0)]
    start_s: Annotated[float, NonNegative]
    end_s: Annotated[float, Positive]
    extra_delay_us: Annotated[float, NonNegative] = 0.0
    loss_prob: Annotated[float, Fraction] = 0.0

    def __post_init__(self) -> None:
        validate_fields(self)
        _check_window(self.start_s, self.end_s)


FaultEvent = Union[NodeCrash, SlowNode, DegradedLink]
#: One node's windows in integer µs: crashes ``(start, end)``, slowdowns
#: ``(multiplier, start, end)``, links ``(delay, loss, start, end)``.
_NodeIndex = Tuple[
    List[Tuple[int, int]],
    List[Tuple[float, int, int]],
    List[Tuple[float, float, int, int]],
]


class NodeFaults(NamedTuple):
    """Everything the schedule says about one node at one instant.

    ``down``: the node is crashed.  ``recovered``: a crash window of the
    node ended in ``(since_us, now_us]``, so the router cold-restarts it.
    ``extra_delay_us`` / ``loss_prob``: the router↔node link's active delay
    (each way; overlapping events add) and loss (independent drops,
    ``1 - Π(1 - p)``).  ``multiplier``: the product of active slowdowns.
    """

    down: bool
    recovered: bool
    extra_delay_us: float
    loss_prob: float
    multiplier: float


#: What a node no fault event names always answers.
HEALTHY = NodeFaults(False, False, 0.0, 0.0, 1.0)


def _merged(windows: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """One node's crash windows in time order, merged where they overlap or touch.

    A node is down over the union of its crash windows, so it recovers once,
    at the end of each merged window, never while another window still
    covers that instant.
    """
    out: List[Tuple[int, int]] = []
    for start_us, end_us in sorted(windows):
        if out and start_us <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end_us))
        else:
            out.append((start_us, end_us))
    return out


class FaultSchedule:
    """A queryable schedule of fault events over simulated time.

    The one query, :meth:`at`, takes the current simulated time in
    **microseconds** (the cluster's clock unit); event windows are declared
    in seconds, the unit scenario authors think in, and are normalised to
    *integer* microseconds once at construction — queries never convert the
    clock back to float seconds, so window boundaries are exact µs ticks
    rather than artifacts of binary floating point (``0.2 * 1e6`` is
    ``200000.00000000003``).
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        events = tuple(events)
        for event in events:
            if not isinstance(event, (NodeCrash, SlowNode, DegradedLink)):
                raise TypeError(
                    "fault events must be NodeCrash, SlowNode or DegradedLink, "
                    f"got {type(event).__name__}"
                )
        self.events = events
        # One index over the nodes the events name, windows already in
        # integer µs: crash windows merged into disjoint ones in time order,
        # slowdowns and links in declaration order.  The router asks about
        # one node on every attempt; a node the index lacks is healthy.
        self._nodes: Dict[int, _NodeIndex] = {}
        for e in events:
            crashes, slowdowns, links = self._nodes.setdefault(e.node, ([], [], []))
            start_us, end_us = s_to_us(e.start_s), s_to_us(e.end_s)
            if isinstance(e, NodeCrash):
                crashes.append((start_us, end_us))
            elif isinstance(e, SlowNode):
                slowdowns.append((e.multiplier, start_us, end_us))
            else:
                links.append((e.extra_delay_us, e.loss_prob, start_us, end_us))
        for crashes, _slowdowns, _links in self._nodes.values():
            crashes[:] = _merged(crashes)

    def __len__(self) -> int:
        return len(self.events)

    # ----------------------------------------------------------------- query
    def at(self, node: int, since_us: float, now_us: float) -> NodeFaults:
        """What ``node`` faces at ``now_us``, last asked about at ``since_us``.

        One scan of the node's own windows answers every question the router
        has of an attempt (see :class:`NodeFaults`); a node no event names
        is :data:`HEALTHY` without a scan.
        """
        index = self._nodes.get(node)
        if index is None:
            return HEALTHY
        crashes, slowdowns, links = index
        down = recovered = False
        for start_us, end_us in crashes:
            if start_us <= now_us < end_us:
                down = True
            if since_us < end_us <= now_us:
                recovered = True
        multiplier = 1.0
        for factor, start_us, end_us in slowdowns:
            if start_us <= now_us < end_us:
                multiplier *= factor
        delay = 0.0
        survive = 1.0
        for extra_us, loss, start_us, end_us in links:
            if start_us <= now_us < end_us:
                delay += extra_us
                survive *= 1.0 - loss
        return NodeFaults(down, recovered, delay, 1.0 - survive, multiplier)


# ------------------------------------------------------------------- catalog
#: The node a single-node scenario strikes (the cluster's first).
TARGET_NODE = 0
#: ``flaky_link``'s added delay, each way, in µs.
FLAKY_LINK_DELAY_US = 200.0
#: ``degraded_cluster``'s severities: node 1's slowdown, and node 2's link
#: delay (each way, µs) and loss.
DEGRADED_MULTIPLIER = 8.0
DEGRADED_DELAY_US = 100.0
DEGRADED_LOSS_PROB = 0.02


def _scenario_none(num_nodes: int, **_: float) -> FaultSchedule:
    return FaultSchedule(())


def _scenario_crash_recover(
    num_nodes: int, start_s: float = 0.2, duration_s: float = 0.4, **_: float
) -> FaultSchedule:
    return FaultSchedule(
        [NodeCrash(node=TARGET_NODE, start_s=start_s, end_s=start_s + duration_s)]
    )


def _scenario_slow_node(
    num_nodes: int,
    start_s: float = 0.2,
    duration_s: float = 0.6,
    multiplier: float = 20.0,
    **_: float,
) -> FaultSchedule:
    return FaultSchedule(
        [
            SlowNode(
                node=TARGET_NODE,
                start_s=start_s,
                end_s=start_s + duration_s,
                multiplier=multiplier,
            )
        ]
    )


def _scenario_flaky_link(
    num_nodes: int,
    start_s: float = 0.2,
    duration_s: float = 0.6,
    loss_prob: float = 0.05,
    **_: float,
) -> FaultSchedule:
    return FaultSchedule(
        [
            DegradedLink(
                node=TARGET_NODE,
                start_s=start_s,
                end_s=start_s + duration_s,
                extra_delay_us=FLAKY_LINK_DELAY_US,
                loss_prob=loss_prob,
            )
        ]
    )


def _scenario_degraded_cluster(
    num_nodes: int, start_s: float = 0.2, duration_s: float = 0.6, **_: float
) -> FaultSchedule:
    """The compound scenario: one node crashes, one slows, one link degrades."""
    end_s = start_s + duration_s
    events: List[FaultEvent] = [NodeCrash(node=0, start_s=start_s, end_s=end_s)]
    if num_nodes > 1:
        events.append(
            SlowNode(node=1, start_s=start_s, end_s=end_s, multiplier=DEGRADED_MULTIPLIER)
        )
    if num_nodes > 2:
        events.append(
            DegradedLink(
                node=2,
                start_s=start_s,
                end_s=end_s,
                extra_delay_us=DEGRADED_DELAY_US,
                loss_prob=DEGRADED_LOSS_PROB,
            )
        )
    return FaultSchedule(events)


#: The named scenario catalog: name -> factory(num_nodes, **overrides).
SCENARIOS: Dict[str, Callable[..., FaultSchedule]] = {
    "none": _scenario_none,
    "crash_recover": _scenario_crash_recover,
    "slow_node": _scenario_slow_node,
    "flaky_link": _scenario_flaky_link,
    "degraded_cluster": _scenario_degraded_cluster,
}


def make_scenario(name: str, num_nodes: int, **overrides: float) -> FaultSchedule:
    """Instantiate a named scenario from the catalog.

    ``overrides`` tune the scenario's window (``start_s``, ``duration_s``)
    and severity (``slow_node``'s ``multiplier``, ``flaky_link``'s
    ``loss_prob``); the struck nodes and the other severities are the
    module's constants.  A key that only *other* scenarios use is ignored,
    so one sweep loop can drive every scenario with a common parameter set;
    a key that no catalog scenario uses (a typo such as ``duraton_s``)
    raises ``ValueError``.  For another target, build a
    :class:`FaultSchedule`.
    """
    check_int_at_least(num_nodes, 1, "num_nodes")
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; catalog: {sorted(SCENARIOS)}"
        ) from None
    # Every knob some catalog factory names (``_`` is their catch-all).
    accepted = sorted(
        {key for f in SCENARIOS.values() for key in inspect.signature(f).parameters}
        - {"num_nodes", "_"}
    )
    unknown = sorted(set(overrides) - set(accepted))
    if unknown:
        raise ValueError(
            f"unknown scenario override(s) {unknown}; accepted: {accepted}"
        )
    return factory(num_nodes, **overrides)
