"""The fault-injection layer: event validation, window queries, the catalog."""

import pytest

from repro.cluster.faults import (
    SCENARIOS,
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
        assert not faults.is_down(1, 0.199e6)
        assert faults.is_down(1, 0.2e6)
        assert faults.is_down(1, 0.5999e6)
        assert not faults.is_down(1, 0.6e6)
        assert not faults.is_down(0, 0.3e6)  # other nodes unaffected

    def test_multiplier_products_overlapping_events(self):
        faults = FaultSchedule(
            [
                SlowNode(node=0, start_s=0.0, end_s=1.0, multiplier=2.0),
                SlowNode(node=0, start_s=0.5, end_s=1.5, multiplier=3.0),
            ]
        )
        assert faults.latency_multiplier(0, 0.25e6) == pytest.approx(2.0)
        assert faults.latency_multiplier(0, 0.75e6) == pytest.approx(6.0)
        assert faults.latency_multiplier(0, 1.25e6) == pytest.approx(3.0)
        assert faults.latency_multiplier(0, 2.0e6) == pytest.approx(1.0)

    def test_link_combines_delay_and_loss(self):
        faults = FaultSchedule(
            [
                DegradedLink(node=0, start_s=0.0, end_s=1.0, extra_delay_us=100.0, loss_prob=0.5),
                DegradedLink(node=0, start_s=0.0, end_s=1.0, extra_delay_us=50.0, loss_prob=0.5),
            ]
        )
        delay, loss = faults.link(0, 0.5e6)
        assert delay == pytest.approx(150.0)
        assert loss == pytest.approx(0.75)  # independent drops: 1 - 0.5 * 0.5

    def test_link_quiet_outside_window(self):
        faults = FaultSchedule(
            [DegradedLink(node=0, start_s=0.2, end_s=0.4, extra_delay_us=10.0, loss_prob=0.1)]
        )
        assert faults.link(0, 0.5e6) == (0.0, 0.0)

    def test_crash_recovered_between(self):
        faults = FaultSchedule([NodeCrash(node=0, start_s=0.2, end_s=0.6)])
        # Recovery (crash end at 0.6 s) falls in (since, now].
        assert faults.crash_recovered_between(0, 0.5e6, 0.7e6)
        assert faults.crash_recovered_between(0, 0.5e6, 0.6e6)
        assert not faults.crash_recovered_between(0, 0.6e6, 0.7e6)  # already seen
        assert not faults.crash_recovered_between(0, 0.1e6, 0.5e6)  # still down
        assert not faults.crash_recovered_between(1, 0.0, 1.0e6)  # never crashed

    def test_empty_schedule_is_healthy(self):
        faults = FaultSchedule(())
        assert len(faults) == 0
        assert not faults.is_down(0, 1e6)
        assert faults.latency_multiplier(0, 1e6) == pytest.approx(1.0)
        assert faults.link(0, 1e6) == (0.0, 0.0)


def _flat_scan(events, node, since_us, now_us):
    """All four queries answered by scanning every event (the pre-index way)."""

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
    recovered = any(
        isinstance(e, NodeCrash)
        and e.node == node
        and since_us < s_to_us(e.end_s) <= now_us
        for e in events
    )
    return bool(active(NodeCrash)), multiplier, (delay, 1.0 - survive), recovered


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
                    assert (
                        faults.is_down(node, now_us),
                        faults.latency_multiplier(node, now_us),
                        faults.link(node, now_us),
                        faults.crash_recovered_between(node, since_us, now_us),
                    ) == _flat_scan(events, node, since_us, now_us)


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
            "slow_node", num_nodes=4, start_s=0.1, duration_s=0.2, node=2, multiplier=5.0
        )
        assert faults.latency_multiplier(2, 0.2e6) == pytest.approx(5.0)
        assert faults.latency_multiplier(2, 0.05e6) == pytest.approx(1.0)

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
        knobs = dict(
            start_s=0.1,
            duration_s=0.2,
            node=1,
            multiplier=2.0,
            extra_delay_us=50.0,
            loss_prob=0.1,
        )
        for name in SCENARIOS:
            make_scenario(name, num_nodes=4, **knobs)
        with pytest.raises(ValueError) as info:
            make_scenario("none", num_nodes=4, bogus=1.0)
        assert str(info.value).endswith(f"accepted: {sorted(knobs)}")

    def test_degraded_cluster_scales_to_small_clusters(self):
        assert len(make_scenario("degraded_cluster", num_nodes=1)) == 1
        assert len(make_scenario("degraded_cluster", num_nodes=2)) == 2
        assert len(make_scenario("degraded_cluster", num_nodes=4)) == 3
