"""Unit tests for :class:`repro.control.FleetController`."""

from __future__ import annotations

import pytest

from repro.control import Assignment, FleetController
from repro.telemetry.events import EventBus, FleetRebalanced

MB = 1e6


def make(policy="fair-share", **kw):
    kw.setdefault("bus", EventBus())
    return FleetController(policy, **kw)


class TestLifecycle:
    def test_direct_open_observe_close(self):
        ctl = make()
        ctl.flow_opened(1, now=0.0)
        ctl.observe_flow(1, now=1.0, level=2, app_rate=40 * MB, observed_ratio=0.5)
        assert ctl.flow_count == 1
        fleet = ctl.fleet_view(2.0)
        assert fleet.flows[0].level == 2
        assert fleet.flows[0].observed_ratio == pytest.approx(0.5)
        assert fleet.flows[0].age_seconds == pytest.approx(2.0)
        ctl.flow_closed(1)
        assert ctl.flow_count == 0

    def test_observe_creates_unknown_flow(self):
        ctl = make()
        ctl.observe_flow(9, now=5.0, level=1, app_rate=1.0)
        assert ctl.flow_count == 1


class TestRatioHonesty:
    def test_ratio_at_level_zero_is_discarded(self):
        ctl = make()
        ctl.observe_flow(1, now=1.0, level=0, app_rate=1.0, observed_ratio=1.0)
        assert ctl.fleet_view(1.0).flows[0].observed_ratio is None

    def test_informative_ratio_survives_a_level_pin(self):
        ctl = make()
        ctl.observe_flow(1, now=1.0, level=2, app_rate=1.0, observed_ratio=0.97)
        # Later samples at the pinned level 0 must not erase evidence.
        ctl.observe_flow(1, now=2.0, level=0, app_rate=1.0, observed_ratio=1.0)
        assert ctl.fleet_view(2.0).flows[0].observed_ratio == pytest.approx(0.97)


class TestOnTick:
    def test_interval_gate_and_actuation(self):
        applied = []
        ctl = make(
            "greedy-throughput",
            actuator=lambda fid, asg: applied.append((fid, asg)),
            control_interval=1.0,
        )
        ctl.observe_flow(1, now=0.0, level=2, app_rate=1.0, observed_ratio=0.99)
        assert ctl.on_tick(0.0) is not None
        assert applied == [(1, Assignment(level=0, weight=0.25))]
        assert ctl.assignment_for(1) == Assignment(level=0, weight=0.25)
        # Within the interval: no policy pass.
        assert ctl.on_tick(0.5) is None
        assert ctl.rebalances == 1
        assert ctl.on_tick(1.5) is not None
        assert ctl.rebalances == 2

    def test_empty_fleet_never_runs_policy(self):
        ctl = make()
        assert ctl.on_tick(0.0) is None
        assert ctl.rebalances == 0

    def test_rebalance_event_published_when_bus_active(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, FleetRebalanced)
        ctl = make("greedy-throughput", bus=bus)
        ctl.observe_flow(1, now=0.0, level=1, app_rate=1.0, observed_ratio=0.95)
        ctl.observe_flow(2, now=0.0, level=1, app_rate=1.0, observed_ratio=0.2)
        ctl.on_tick(0.0)
        assert len(seen) == 1
        ev = seen[0]
        assert ev.policy == "greedy-throughput"
        assert ev.flows == 2 and ev.pinned == 1 and ev.reweighted == 1

    def test_assignment_updates_snapshot_weight(self):
        ctl = make("hill-climb")
        ctl.observe_flow(1, now=0.0, level=1, app_rate=10 * MB)
        ctl.on_tick(0.0)
        # Hill-climb perturbed the sole moving flow up one step, and the
        # stored assignment is visible through both introspection paths.
        assert ctl.assignment_for(1).weight == pytest.approx(1.25)
        assert ctl.fleet_view(0.0).flows[0].weight == pytest.approx(1.25)

    def test_validates_interval(self):
        with pytest.raises(ValueError):
            make(control_interval=0.0)
