"""Tests for the contended-fleet simulation harness."""

from __future__ import annotations

import pytest

from repro.data import Compressibility
from repro.sim import FleetFlowSpec, run_fleet_scenario

MB = 10**6


def specs(n_high=2, n_low=1, hi=150 * MB, lo=80 * MB):
    out = [
        FleetFlowSpec(f"hi{i}", Compressibility.HIGH, hi) for i in range(n_high)
    ]
    out += [FleetFlowSpec(f"lo{i}", Compressibility.LOW, lo) for i in range(n_low)]
    return out


def run(flows, **kw):
    # Short epochs and control rounds so multi-second fleets still see
    # plenty of epochs and policy passes.
    kw.setdefault("epoch_seconds", 0.5)
    kw.setdefault("control_interval", 1.0)
    return run_fleet_scenario(flows, **kw)


class TestUncontrolledBaseline:
    def test_fleet_drains_and_accounts_every_byte(self):
        fleet = run(specs(), seed=3)
        assert fleet.policy is None
        assert fleet.rebalances == 0
        assert len(fleet.flows) == 3
        assert fleet.makespan > 0
        assert fleet.total_app_bytes == pytest.approx(sum(s.total_bytes for s in specs()))
        assert fleet.aggregate_goodput > 0
        for flow in fleet.flows:
            assert flow.completion_time <= fleet.makespan
            assert sum(flow.level_epochs.values()) > 0

    def test_deterministic_under_seed(self):
        a = run(specs(), seed=11)
        b = run(specs(), seed=11)
        assert a.makespan == b.makespan
        assert [f.completion_time for f in a.flows] == [
            f.completion_time for f in b.flows
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            run([])
        with pytest.raises(ValueError):
            run(specs(), cores=0.0)


class TestControlledFleet:
    def test_fair_share_matches_uncontrolled_decisions(self):
        base = run(specs(), seed=7)
        fair = run(specs(), policy="fair-share", seed=7)
        assert fair.policy == "fair-share"
        assert fair.rebalances > 0
        # Same weights, same per-flow schemes: identical outcome.
        assert fair.makespan == pytest.approx(base.makespan, rel=1e-9)

    def test_greedy_pins_the_incompressible_flow(self):
        fleet = run(specs(n_high=1, n_low=1), policy="greedy-throughput", cores=1.0, seed=7)
        low = next(f for f in fleet.flows if f.compressibility == "LOW")
        epochs_at_no = low.level_epochs.get(0, 0)
        assert epochs_at_no / sum(low.level_epochs.values()) > 0.6
        assert fleet.rebalances > 0

    def test_policy_instance_accepted(self):
        from repro.control import GreedyThroughputPolicy

        fleet = run(specs(n_high=1, n_low=0), policy=GreedyThroughputPolicy(), seed=1)
        assert fleet.policy == "greedy-throughput"


class TestPercentiles:
    def test_nearest_rank(self):
        fleet = run(specs(), seed=5)
        times = sorted(f.completion_time for f in fleet.flows)
        assert fleet.completion_percentile(100) == times[-1]
        assert fleet.completion_percentile(1) == times[0]
        assert fleet.completion_percentile(50) in times

    def test_open_loop_ranks_durations_not_finish_instants(self):
        from repro.sim import FleetArrivalSpec

        fleet = run_fleet_scenario(
            specs(n_high=1, n_low=1, hi=200 * MB, lo=100 * MB),
            arrivals=FleetArrivalSpec(30, interval=2.0, mean=4, swing=2),
            cores=2,
            seed=3,
        )
        durations = sorted(f.completion_time - f.started_at for f in fleet.flows)
        assert durations != sorted(f.completion_time for f in fleet.flows)
        assert fleet.completion_percentile(50) == durations[14]
        assert fleet.completion_percentile(100) == durations[-1]


class TestThroughputTelemetry:
    def test_events_and_wall_seconds_populated(self):
        fleet = run(specs(), seed=3)
        assert fleet.events_processed > 0
        assert fleet.wall_seconds > 0
        assert fleet.events_per_second > 0
        assert fleet.flows_spawned == 3
        assert fleet.peak_live == 3  # closed batch: all live at t=0


class TestOpenLoopArrivals:
    def _arrivals(self, total, **kw):
        from repro.sim import FleetArrivalSpec

        kw.setdefault("interval", 2.0)
        kw.setdefault("mean", 4.0)
        kw.setdefault("swing", 2.0)
        kw.setdefault("period", 60.0)
        return FleetArrivalSpec(total_flows=total, **kw)

    def test_spawns_exactly_total_flows(self):
        fleet = run(
            specs(hi=30 * MB, lo=20 * MB),
            arrivals=self._arrivals(12),
            seed=5,
        )
        assert fleet.flows_spawned == 12
        assert len(fleet.flows) == 12
        assert 1 <= fleet.peak_live <= 12
        # Specs cycle as templates: ids beyond the spec list reuse names.
        names = {f.name for f in fleet.flows}
        assert names == {s.name for s in specs()}

    def test_flows_arrive_over_time(self):
        fleet = run(
            specs(hi=30 * MB, lo=20 * MB),
            arrivals=self._arrivals(12),
            seed=5,
        )
        starts = sorted(f.started_at for f in fleet.flows)
        assert starts[0] == 0.0
        assert starts[-1] > 0.0  # not a closed batch
        for f in fleet.flows:
            assert f.completion_time >= f.started_at

    def test_deterministic_from_seed(self):
        kw = dict(arrivals=self._arrivals(10), seed=11)
        a = run(specs(hi=30 * MB, lo=20 * MB), **kw)
        b = run(specs(hi=30 * MB, lo=20 * MB), **kw)
        assert [f.started_at for f in a.flows] == [f.started_at for f in b.flows]
        assert [f.completion_time for f in a.flows] == [
            f.completion_time for f in b.flows
        ]
        assert a.makespan == b.makespan

    def test_controlled_open_loop_fleet(self):
        fleet = run(
            specs(hi=30 * MB, lo=20 * MB),
            arrivals=self._arrivals(10),
            policy="fair-share",
            seed=7,
        )
        assert fleet.policy == "fair-share"
        assert fleet.flows_spawned == 10
        assert fleet.total_app_bytes > 0

    def test_arrival_spec_validation(self):
        from repro.sim import FleetArrivalSpec

        with pytest.raises(ValueError):
            FleetArrivalSpec(total_flows=0)
        with pytest.raises(ValueError):
            FleetArrivalSpec(total_flows=5, interval=0.0)


class TestPinnedFleetDecisions:
    """perfbench's ``sim-fleet`` shape at 40 flows, decisions pinned.

    perfbench compares fleets only against fleets of the same checkout,
    so a change that moves a decision would pass it unnoticed; these
    values pin the simulator's decisions across changes.  The inputs
    are written out rather than imported from ``perfbench/simfleet.py``
    so that the pin moves only when the simulator's decisions do.  The
    sim RNG streams are sha256-seeded, so the run does not depend on
    ``PYTHONHASHSEED``.
    """

    def test_greedy_fleet_decisions_are_pinned(self):
        from repro.sim import FleetArrivalSpec

        fleet = run_fleet_scenario(
            [
                FleetFlowSpec("high", Compressibility.HIGH, 1_200_000_000),
                FleetFlowSpec("moderate", Compressibility.MODERATE, 1_000_000_000),
                FleetFlowSpec("low", Compressibility.LOW, 800_000_000),
            ],
            policy="greedy-throughput",
            arrivals=FleetArrivalSpec(40, interval=2.0, mean=12, swing=6),
            cores=4,
            seed=1,
        )
        epochs_by_level: dict = {}
        low_epochs = low_at_no = 0
        for f in fleet.flows:
            for level, n in f.level_epochs.items():
                epochs_by_level[level] = epochs_by_level.get(level, 0) + n
            if f.compressibility == "LOW":
                low_epochs += sum(f.level_epochs.values())
                low_at_no += f.level_epochs.get(0, 0)
        assert fleet.aggregate_goodput.hex() == "0x1.6ecabf1b9757ap+27"
        assert epochs_by_level == {0: 648, 1: 350, 2: 194, 3: 35}
        assert fleet.rebalances == 52
        assert fleet.events_processed == 8550
        # The regime the pin is taken in: every flow lives long enough
        # to adapt, adapts, and greedy holds the LOW flows at NO.
        assert min(sum(f.level_epochs.values()) for f in fleet.flows) >= 7
        assert all(len(f.level_epochs) > 1 for f in fleet.flows)
        assert low_at_no / low_epochs >= 0.9
