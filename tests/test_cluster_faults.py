"""The fault-injection layer: event validation, window queries, the catalog."""

import numpy as np
import pytest

from repro.cluster.faults import (
    DEGRADED_DELAY_US,
    DEGRADED_LOSS_PROB,
    DEGRADED_MULTIPLIER,
    FLAKY_LINK_DELAY_US,
    HEALTHY,
    SCENARIOS,
    TARGET_NODE,
    DegradedLink,
    FaultSchedule,
    NodeCrash,
    SlowNode,
    make_scenario,
)
from repro.utils.units import s_to_us


class TestEventValidation:
    def test_crash_rejects_inverted_window(self):
        with pytest.raises(ValueError, match="end_s"):
            NodeCrash(node=0, start_s=1.0, end_s=0.5)

    def test_crash_rejects_negative_node(self):
        with pytest.raises(ValueError):
            NodeCrash(node=-1, start_s=0.0, end_s=1.0)

    def test_slow_node_rejects_speedup(self):
        with pytest.raises(ValueError, match="multiplier"):
            SlowNode(node=0, start_s=0.0, end_s=1.0, multiplier=0.5)

    def test_link_rejects_bad_loss_prob(self):
        with pytest.raises(ValueError):
            DegradedLink(node=0, start_s=0.0, end_s=1.0, loss_prob=1.5)

    def test_schedule_rejects_foreign_events(self):
        with pytest.raises(TypeError, match="fault events"):
            FaultSchedule(["node0 down"])


class TestScheduleQueries:
    def test_is_down_window_half_open(self):
        faults = FaultSchedule([NodeCrash(node=1, start_s=0.2, end_s=0.6)])
        assert not faults.at(1, 0.199e6, 0.199e6).down
        assert faults.at(1, 0.2e6, 0.2e6).down
        assert faults.at(1, 0.5999e6, 0.5999e6).down
        assert not faults.at(1, 0.6e6, 0.6e6).down
        assert not faults.at(0, 0.3e6, 0.3e6).down  # other nodes unaffected

    def test_multiplier_products_overlapping_events(self):
        faults = FaultSchedule(
            [
                SlowNode(node=0, start_s=0.0, end_s=1.0, multiplier=2.0),
                SlowNode(node=0, start_s=0.5, end_s=1.5, multiplier=3.0),
            ]
        )
        assert faults.at(0, 0.25e6, 0.25e6).multiplier == pytest.approx(2.0)
        assert faults.at(0, 0.75e6, 0.75e6).multiplier == pytest.approx(6.0)
        assert faults.at(0, 1.25e6, 1.25e6).multiplier == pytest.approx(3.0)
        assert faults.at(0, 2.0e6, 2.0e6).multiplier == pytest.approx(1.0)

    def test_link_combines_delay_and_loss(self):
        faults = FaultSchedule(
            [
                DegradedLink(node=0, start_s=0.0, end_s=1.0, extra_delay_us=100.0, loss_prob=0.5),
                DegradedLink(node=0, start_s=0.0, end_s=1.0, extra_delay_us=50.0, loss_prob=0.5),
            ]
        )
        _down, _recovered, delay, loss, _multiplier = faults.at(0, 0.5e6, 0.5e6)
        assert delay == pytest.approx(150.0)
        assert loss == pytest.approx(0.75)  # independent drops: 1 - 0.5 * 0.5

    def test_link_quiet_outside_window(self):
        faults = FaultSchedule(
            [DegradedLink(node=0, start_s=0.2, end_s=0.4, extra_delay_us=10.0, loss_prob=0.1)]
        )
        state = faults.at(0, 0.5e6, 0.5e6)
        assert (state.extra_delay_us, state.loss_prob) == (0.0, 0.0)

    def test_crash_recovered_between(self):
        faults = FaultSchedule([NodeCrash(node=0, start_s=0.2, end_s=0.6)])
        # Recovery (crash end at 0.6 s) falls in (since, now].
        assert faults.at(0, 0.5e6, 0.7e6).recovered
        assert faults.at(0, 0.5e6, 0.6e6).recovered
        assert not faults.at(0, 0.6e6, 0.7e6).recovered  # already seen
        assert not faults.at(0, 0.1e6, 0.5e6).recovered  # still down
        assert not faults.at(1, 0.0, 1.0e6).recovered  # never crashed

    def test_overlapping_crash_windows_recover_once(self):
        # One outage written as two overlapping windows (and a third that
        # only touches the second) is down over their union and recovers
        # once, at its end: 0.4 s and 0.6 s are no recoveries.
        faults = FaultSchedule(
            [
                NodeCrash(node=0, start_s=0.3, end_s=0.6),
                NodeCrash(node=0, start_s=0.2, end_s=0.4),
                NodeCrash(node=0, start_s=0.6, end_s=0.7),
            ]
        )
        assert not faults.at(0, 0.35e6, 0.45e6).recovered
        assert not faults.at(0, 0.5e6, 0.65e6).recovered
        assert faults.at(0, 0.6e6, 0.6e6).down
        assert faults.at(0, 0.65e6, 0.7e6).recovered
        assert faults.at(0, 0.0, 1.0e6).recovered

    def test_empty_schedule_is_healthy(self):
        faults = FaultSchedule(())
        assert len(faults) == 0
        assert faults.at(0, 0.0, 1e6) == (False, False, 0.0, 0.0, 1.0)

    def test_node_no_event_names_is_healthy_without_a_scan(self):
        faults = FaultSchedule([NodeCrash(node=1, start_s=0.2, end_s=0.6)])
        assert faults.at(0, 0.0, 0.3e6) is HEALTHY
        assert faults.at(1, 0.0, 0.3e6) == (True, False, 0.0, 0.0, 1.0)


def _flat_scan(events, node, since_us, now_us):
    """``FaultSchedule.at`` answered by scanning every event (the pre-index way)."""

    def active(kind):
        return [
            e
            for e in events
            if isinstance(e, kind)
            and e.node == node
            and s_to_us(e.start_s) <= now_us < s_to_us(e.end_s)
        ]

    multiplier = 1.0
    for e in active(SlowNode):
        multiplier *= e.multiplier
    delay, survive = 0.0, 1.0
    for e in active(DegradedLink):
        delay += e.extra_delay_us
        survive *= 1.0 - e.loss_prob
    crashes = [e for e in events if isinstance(e, NodeCrash) and e.node == node]

    def down(at_us):
        return any(s_to_us(e.start_s) <= at_us < s_to_us(e.end_s) for e in crashes)

    # A recovery is a window's end that no other window covers.
    recovered = any(
        since_us < s_to_us(e.end_s) <= now_us and not down(s_to_us(e.end_s))
        for e in crashes
    )
    return (down(now_us), recovered, delay, 1.0 - survive, multiplier)


class TestPerNodeIndex:
    def test_index_answers_like_a_flat_scan(self):
        # Overlapping crash/slow/link windows, most of them on node 1,
        # declared interleaved with another node's so order matters.
        events = [
            SlowNode(node=1, start_s=0.1, end_s=0.5, multiplier=3.0),
            NodeCrash(node=0, start_s=0.1, end_s=0.3),
            DegradedLink(node=1, start_s=0.2, end_s=0.6, extra_delay_us=70.0, loss_prob=0.3),
            NodeCrash(node=1, start_s=0.2, end_s=0.4),
            SlowNode(node=1, start_s=0.3, end_s=0.7, multiplier=1.7),
            DegradedLink(node=1, start_s=0.1, end_s=0.3, extra_delay_us=0.1, loss_prob=0.1),
            NodeCrash(node=1, start_s=0.35, end_s=0.55),
            SlowNode(node=2, start_s=0.0, end_s=1.0, multiplier=5.0),
        ]
        faults = FaultSchedule(events)
        ticks = [step * 50_000.0 for step in range(17)] + [199_999.0, 400_000.5]
        for node in range(4):
            for index, now_us in enumerate(ticks):
                for since_us in ticks[: index + 1]:
                    assert faults.at(node, since_us, now_us) == _flat_scan(
                        events, node, since_us, now_us
                    )


    @pytest.mark.parametrize("seed", range(12))
    def test_random_crash_windows_answer_like_a_flat_scan(self, seed):
        # Random, heavily overlapping windows on a 50 ms grid over two nodes:
        # nested, identical, touching and chained windows all turn up.
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(int(rng.integers(1, 7))):
            start = int(rng.integers(0, 16))
            end = int(rng.integers(start + 1, 21))
            node = int(rng.integers(0, 2))
            events.append(NodeCrash(node=node, start_s=start / 20, end_s=end / 20))
        faults = FaultSchedule(events)
        ticks = [step * 25_000.0 for step in range(42)] + [349_999.0, 600_000.5]
        for node in range(3):
            for index, now_us in enumerate(ticks):
                for since_us in ticks[: index + 1]:
                    assert faults.at(node, since_us, now_us) == _flat_scan(
                        events, node, since_us, now_us
                    )


class TestCrashWindowsMerge:
    @pytest.mark.parametrize(
        "windows, outages",
        [
            ([(0.2, 0.6), (0.3, 0.4)], [(0.2, 0.6)]),
            ([(0.2, 0.6), (0.2, 0.6)], [(0.2, 0.6)]),
            ([(0.2, 0.4), (0.4, 0.6)], [(0.2, 0.6)]),
            ([(0.5, 0.7), (0.1, 0.3), (0.25, 0.55)], [(0.1, 0.7)]),
            ([(0.6, 0.8), (0.1, 0.3)], [(0.1, 0.3), (0.6, 0.8)]),
            ([(0.0, 0.2), (0.1, 0.3), (0.5, 0.6), (0.55, 0.9)], [(0.0, 0.3), (0.5, 0.9)]),
        ],
        ids=["nested", "identical", "touching", "unsorted-chain", "disjoint", "two-outages"],
    )
    def test_node_recovers_once_per_outage(self, windows, outages):
        # The node is down over the union of its windows and recovers exactly
        # at each end of that union, never at an end another window covers.
        faults = FaultSchedule([NodeCrash(node=0, start_s=a, end_s=b) for a, b in windows])
        ticks = [step * 10_000 for step in range(101)]
        down = [t for t in ticks if faults.at(0, t, t).down]
        assert down == [t for t in ticks if any(a * 1e6 <= t < b * 1e6 for a, b in outages)]
        recoveries = [
            t for t in ticks[1:] if faults.at(0, t - 10_000, t).recovered
        ]
        assert recoveries == [round(b * 1e6) for _a, b in outages]


class TestScenarioCatalog:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_catalog_entry_instantiates(self, name):
        faults = make_scenario(name, num_nodes=4)
        assert isinstance(faults, FaultSchedule)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize(
        "num_nodes, error", [(2.5, TypeError), (True, TypeError), (0, ValueError)]
    )
    def test_num_nodes_is_checked_for_every_entry(self, name, num_nodes, error):
        # 2.5 and True used to build a schedule for every entry but
        # degraded_cluster, the one factory that checked its argument.
        with pytest.raises(error, match="num_nodes"):
            make_scenario(name, num_nodes=num_nodes)

    def test_none_is_empty(self):
        assert len(make_scenario("none", num_nodes=4)) == 0

    def test_unknown_scenario_lists_catalog(self):
        with pytest.raises(ValueError, match="catalog"):
            make_scenario("meteor_strike", num_nodes=4)

    def test_overrides_reach_the_event(self):
        faults = make_scenario(
            "slow_node", num_nodes=4, start_s=0.1, duration_s=0.2, multiplier=5.0
        )
        assert faults.at(TARGET_NODE, 0.2e6, 0.2e6).multiplier == pytest.approx(5.0)
        assert faults.at(TARGET_NODE, 0.05e6, 0.05e6).multiplier == pytest.approx(1.0)
        assert faults.at(TARGET_NODE, 0.35e6, 0.35e6).multiplier == pytest.approx(1.0)
        faults = make_scenario("flaky_link", num_nodes=4, loss_prob=0.5)
        assert faults.at(TARGET_NODE, 0.3e6, 0.3e6).loss_prob == pytest.approx(0.5)

    def test_unknown_overrides_ignored(self):
        # One sweep loop drives every scenario with a shared parameter set;
        # scenarios ignore knobs they do not use.
        faults = make_scenario("crash_recover", num_nodes=4, loss_prob=0.5, multiplier=9.0)
        assert len(faults) == 1

    def test_override_no_scenario_uses_is_rejected(self):
        # Regression: every factory swallowed **_, so a typo ran the default
        # window (crash over [0.2, 0.6) s) without a word.
        with pytest.raises(ValueError, match=r"\['duraton_s'\].*accepted: \[.*'duration_s'"):
            make_scenario("crash_recover", num_nodes=4, duraton_s=1.0)

    def test_accepted_overrides_come_from_the_factories(self):
        # The accepted set is the union of the catalog's signatures: every
        # knob one factory names is accepted by all of them.
        knobs = dict(start_s=0.1, duration_s=0.2, multiplier=2.0, loss_prob=0.1)
        for name in SCENARIOS:
            make_scenario(name, num_nodes=4, **knobs)
        with pytest.raises(ValueError) as info:
            make_scenario("none", num_nodes=4, bogus=1.0)
        assert str(info.value).endswith(f"accepted: {sorted(knobs)}")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize(
        "knob", [{"node": 2}, {"extra_delay_us": 50.0}], ids=["node", "extra_delay_us"]
    )
    def test_target_and_fixed_severities_are_not_overrides(self, name, knob):
        # The struck node and the severities no sweep varies are the
        # catalog's constants; another target is an explicit FaultSchedule.
        accepted = "['duration_s', 'loss_prob', 'multiplier', 'start_s']"
        with pytest.raises(ValueError) as info:
            make_scenario(name, num_nodes=4, **knob)
        assert str(info.value).endswith(f"accepted: {accepted}")

    def test_defaults_are_the_module_constants(self):
        expected = {
            "none": [],
            "crash_recover": [NodeCrash(node=TARGET_NODE, start_s=0.2, end_s=0.2 + 0.4)],
            "slow_node": [
                SlowNode(node=TARGET_NODE, start_s=0.2, end_s=0.2 + 0.6, multiplier=20.0)
            ],
            "flaky_link": [
                DegradedLink(
                    node=TARGET_NODE,
                    start_s=0.2,
                    end_s=0.2 + 0.6,
                    extra_delay_us=FLAKY_LINK_DELAY_US,
                    loss_prob=0.05,
                )
            ],
            "degraded_cluster": [
                NodeCrash(node=0, start_s=0.2, end_s=0.2 + 0.6),
                SlowNode(node=1, start_s=0.2, end_s=0.2 + 0.6, multiplier=DEGRADED_MULTIPLIER),
                DegradedLink(
                    node=2,
                    start_s=0.2,
                    end_s=0.2 + 0.6,
                    extra_delay_us=DEGRADED_DELAY_US,
                    loss_prob=DEGRADED_LOSS_PROB,
                ),
            ],
        }
        assert sorted(expected) == sorted(SCENARIOS)
        for name, events in expected.items():
            assert make_scenario(name, num_nodes=4).events == FaultSchedule(events).events

    def test_degraded_cluster_scales_to_small_clusters(self):
        assert len(make_scenario("degraded_cluster", num_nodes=1)) == 1
        assert len(make_scenario("degraded_cluster", num_nodes=2)) == 2
        assert len(make_scenario("degraded_cluster", num_nodes=4)) == 3
