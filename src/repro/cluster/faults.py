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
from typing import Annotated, Any, Callable, Dict, Iterable, List, Tuple, Type, Union

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
_NodeIndex = Dict[int, List[Tuple[Any, int, int]]]


def _by_node(events: Iterable[FaultEvent], kind: Type[Any]) -> _NodeIndex:
    """Events of one ``kind`` grouped by node, windows in integer µs."""
    index: _NodeIndex = {}
    for e in events:
        if isinstance(e, kind):
            index.setdefault(e.node, []).append(
                (e, s_to_us(e.start_s), s_to_us(e.end_s))
            )
    return index


def _merged(index: _NodeIndex) -> _NodeIndex:
    """Each node's windows in time order, merged where they overlap or touch.

    A node is down over the union of its crash windows, so it recovers once,
    at the end of each merged window, never while another window still
    covers that instant.
    """
    merged: _NodeIndex = {}
    for node, windows in index.items():
        out: List[Tuple[Any, int, int]] = []
        merged[node] = out
        for event, start_us, end_us in sorted(windows, key=lambda w: (w[1], w[2])):
            if out and start_us <= out[-1][2]:
                first, first_start_us, last_end_us = out[-1]
                out[-1] = (first, first_start_us, max(last_end_us, end_us))
            else:
                out.append((event, start_us, end_us))
    return merged


class FaultSchedule:
    """A queryable schedule of fault events over simulated time.

    All queries take the current simulated time in **microseconds** (the
    cluster's clock unit); event windows are declared in seconds, the unit
    scenario authors think in, and are normalised to *integer* microseconds
    once at construction — queries never convert the clock back to float
    seconds, so window boundaries are exact µs ticks rather than artifacts
    of binary floating point (``0.2 * 1e6`` is ``200000.00000000003``).
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
        # One index per event kind, node -> [(event, start_us, end_us)] with
        # the window already normalised to integer µs: the router asks all
        # four questions of one node on every attempt, so a query scans only
        # that node's events (in declaration order; a node's crash windows
        # are merged into disjoint ones, in time order).
        self._crashes: _NodeIndex = _merged(_by_node(events, NodeCrash))
        self._slowdowns: _NodeIndex = _by_node(events, SlowNode)
        self._links: _NodeIndex = _by_node(events, DegradedLink)

    def __len__(self) -> int:
        return len(self.events)

    # ---------------------------------------------------------------- queries
    def is_down(self, node: int, now_us: float) -> bool:
        """Whether ``node`` is crashed at simulated time ``now_us``."""
        for _e, start_us, end_us in self._crashes.get(node, ()):
            if start_us <= now_us < end_us:
                return True
        return False

    def latency_multiplier(self, node: int, now_us: float) -> float:
        """Service-time multiplier on ``node`` (product of active slowdowns)."""
        multiplier = 1.0
        for e, start_us, end_us in self._slowdowns.get(node, ()):
            if start_us <= now_us < end_us:
                multiplier *= e.multiplier
        return multiplier

    def link(self, node: int, now_us: float) -> Tuple[float, float]:
        """Active ``(extra_delay_us, loss_prob)`` of the router↔node link.

        Delays of overlapping events add; losses combine as independent
        drops (``1 - Π(1 - p)``).
        """
        delay = 0.0
        survive = 1.0
        for e, start_us, end_us in self._links.get(node, ()):
            if start_us <= now_us < end_us:
                delay += e.extra_delay_us
                survive *= 1.0 - e.loss_prob
        return delay, 1.0 - survive

    def crash_recovered_between(
        self, node: int, since_us: float, now_us: float
    ) -> bool:
        """Whether ``node`` finished a crash window in ``(since_us, now_us]``.

        The cluster uses this to cold-restart a node's caches the first time
        it is touched after recovering.
        """
        for _e, _start_us, end_us in self._crashes.get(node, ()):
            if since_us < end_us <= now_us:
                return True
        return False


# ------------------------------------------------------------------- catalog
def _scenario_none(num_nodes: int, **_: float) -> FaultSchedule:
    return FaultSchedule(())


def _scenario_crash_recover(
    num_nodes: int,
    start_s: float = 0.2,
    duration_s: float = 0.4,
    node: int = 0,
    **_: float,
) -> FaultSchedule:
    return FaultSchedule([NodeCrash(node=node, start_s=start_s, end_s=start_s + duration_s)])


def _scenario_slow_node(
    num_nodes: int,
    start_s: float = 0.2,
    duration_s: float = 0.6,
    node: int = 0,
    multiplier: float = 20.0,
    **_: float,
) -> FaultSchedule:
    return FaultSchedule(
        [SlowNode(node=node, start_s=start_s, end_s=start_s + duration_s, multiplier=multiplier)]
    )


def _scenario_flaky_link(
    num_nodes: int,
    start_s: float = 0.2,
    duration_s: float = 0.6,
    node: int = 0,
    extra_delay_us: float = 200.0,
    loss_prob: float = 0.05,
    **_: float,
) -> FaultSchedule:
    return FaultSchedule(
        [
            DegradedLink(
                node=node,
                start_s=start_s,
                end_s=start_s + duration_s,
                extra_delay_us=extra_delay_us,
                loss_prob=loss_prob,
            )
        ]
    )


def _scenario_degraded_cluster(
    num_nodes: int,
    start_s: float = 0.2,
    duration_s: float = 0.6,
    multiplier: float = 8.0,
    extra_delay_us: float = 100.0,
    loss_prob: float = 0.02,
    **_: float,
) -> FaultSchedule:
    """The compound scenario: one node crashes, one slows, one link degrades."""
    end_s = start_s + duration_s
    events: List[FaultEvent] = [NodeCrash(node=0, start_s=start_s, end_s=end_s)]
    if num_nodes > 1:
        events.append(
            SlowNode(node=1 % num_nodes, start_s=start_s, end_s=end_s, multiplier=multiplier)
        )
    if num_nodes > 2:
        events.append(
            DegradedLink(
                node=2 % num_nodes,
                start_s=start_s,
                end_s=end_s,
                extra_delay_us=extra_delay_us,
                loss_prob=loss_prob,
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

    ``overrides`` tune the scenario's knobs (window, target node, severity).
    A key that only *other* scenarios use is ignored, so one sweep loop can
    drive every scenario with a common parameter set; a key that no catalog
    scenario uses (a typo such as ``duraton_s``) raises ``ValueError``.
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
