"""Tests for the fluid shared-link model."""

from __future__ import annotations

import pytest

from repro.sim import Environment, SharedLink


def make_link(capacity=100.0):
    env = Environment()
    return env, SharedLink(env, capacity=capacity)


class TestSingleFlow:
    def test_transfer_time_exact(self):
        env, link = make_link(100.0)
        flow = link.open_flow("f")

        def proc():
            yield link.transmit(flow, 250.0)
            return env.now

        assert env.run_process(proc()) == pytest.approx(2.5)

    def test_zero_bytes_completes_immediately(self):
        env, link = make_link()
        flow = link.open_flow("f")

        def proc():
            yield link.transmit(flow, 0.0)
            return env.now

        assert env.run_process(proc()) == 0.0

    def test_demand_cap_limits_rate(self):
        env, link = make_link(100.0)
        flow = link.open_flow("f", demand=10.0)

        def proc():
            yield link.transmit(flow, 50.0)
            return env.now

        assert env.run_process(proc()) == pytest.approx(5.0)

    def test_sequential_transmissions(self):
        env, link = make_link(100.0)
        flow = link.open_flow("f")

        def proc():
            yield link.transmit(flow, 100.0)
            yield link.transmit(flow, 200.0)
            return env.now

        assert env.run_process(proc()) == pytest.approx(3.0)
        assert flow.bytes_done == pytest.approx(300.0)


class TestSharing:
    def test_equal_weights_split_evenly(self):
        env, link = make_link(100.0)
        f1, f2 = link.open_flow("a"), link.open_flow("b")
        done = {}

        def proc(name, flow, nbytes):
            yield link.transmit(flow, nbytes)
            done[name] = env.now

        env.process(proc("a", f1, 100.0))
        env.process(proc("b", f2, 100.0))
        env.run()
        # Both at 50 B/s while sharing.
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(2.0)

    def test_weighted_share(self):
        env, link = make_link(100.0)
        heavy = link.open_flow("heavy", weight=3.0)
        light = link.open_flow("light", weight=1.0)
        done = {}

        def proc(name, flow, nbytes):
            yield link.transmit(flow, nbytes)
            done[name] = env.now

        env.process(proc("heavy", heavy, 300.0))  # 75 B/s -> 4 s
        env.process(proc("light", light, 100.0))  # 25 B/s -> 4 s
        env.run()
        assert done["heavy"] == pytest.approx(4.0)
        assert done["light"] == pytest.approx(4.0)

    def test_departure_frees_capacity(self):
        env, link = make_link(100.0)
        f1, f2 = link.open_flow("a"), link.open_flow("b")
        done = {}

        def proc(name, flow, nbytes):
            yield link.transmit(flow, nbytes)
            done[name] = env.now

        env.process(proc("a", f1, 50.0)),  # shares 50 B/s -> done at 1.0
        env.process(proc("b", f2, 150.0))  # 50 B done at t=1, then 100 B/s
        env.run()
        assert done["a"] == pytest.approx(1.0)
        assert done["b"] == pytest.approx(2.0)

    def test_demand_capped_flow_redistributes(self):
        env, link = make_link(100.0)
        capped = link.open_flow("capped", demand=20.0)
        free = link.open_flow("free")
        done = {}

        def proc(name, flow, nbytes):
            yield link.transmit(flow, nbytes)
            done[name] = env.now

        env.process(proc("capped", capped, 100.0))  # 20 B/s -> 5 s
        env.process(proc("free", free, 400.0))  # 80 B/s -> 5 s
        env.run()
        assert done["capped"] == pytest.approx(5.0)
        assert done["free"] == pytest.approx(5.0)

    def test_mid_flight_demand_change(self):
        env, link = make_link(100.0)
        flow = link.open_flow("f")

        def changer():
            yield env.timeout(1.0)
            flow.set_demand(10.0)

        def sender():
            yield link.transmit(flow, 190.0)
            return env.now

        env.process(changer())
        proc = env.process(sender())
        env.run()
        # 100 B in first second, remaining 90 B at 10 B/s.
        assert proc.value == pytest.approx(10.0)


class TestCapacityFactor:
    def test_capacity_factor_scales_rate(self):
        env, link = make_link(100.0)
        link.set_capacity_factor(0.5)
        flow = link.open_flow("f")

        def proc():
            yield link.transmit(flow, 100.0)
            return env.now

        assert env.run_process(proc()) == pytest.approx(2.0)

    def test_mid_flight_capacity_change(self):
        env, link = make_link(100.0)
        flow = link.open_flow("f")

        def changer():
            yield env.timeout(1.0)
            link.set_capacity_factor(0.1)

        def sender():
            yield link.transmit(flow, 150.0)
            return env.now

        env.process(changer())
        proc = env.process(sender())
        env.run()
        # 100 B in the first second, then 50 B at 10 B/s.
        assert proc.value == pytest.approx(6.0)

    def test_zero_capacity_stalls_until_restored(self):
        env, link = make_link(100.0)
        flow = link.open_flow("f")

        def choke():
            yield env.timeout(0.5)
            link.set_capacity_factor(0.0)
            yield env.timeout(10.0)
            link.set_capacity_factor(1.0)

        def sender():
            yield link.transmit(flow, 100.0)
            return env.now

        env.process(choke())
        proc = env.process(sender())
        env.run()
        # 50 B by 0.5 s, stalled until 10.5 s, 50 B more by 11 s.
        assert proc.value == pytest.approx(11.0)

    def test_validation(self):
        env, link = make_link()
        with pytest.raises(ValueError):
            link.set_capacity_factor(-0.1)
        with pytest.raises(ValueError):
            SharedLink(env, capacity=0)
        with pytest.raises(ValueError):
            link.open_flow("f", weight=0)


class TestAccounting:
    def test_total_bytes_conserved(self):
        env, link = make_link(100.0)
        flows = [link.open_flow(f"f{i}") for i in range(3)]
        sizes = [123.0, 456.0, 789.0]

        def proc(flow, nbytes):
            yield link.transmit(flow, nbytes)

        for flow, size in zip(flows, sizes):
            env.process(proc(flow, size))
        env.run()
        assert link.total_bytes == pytest.approx(sum(sizes))
        for flow, size in zip(flows, sizes):
            assert flow.bytes_done == pytest.approx(size)

    def test_throughput_never_exceeds_capacity(self):
        env, link = make_link(100.0)
        flows = [link.open_flow(f"f{i}") for i in range(4)]

        def proc(flow):
            yield link.transmit(flow, 100.0)

        for flow in flows:
            env.process(proc(flow))
        env.run()
        # 400 B through a 100 B/s link must take >= 4 s.
        assert env.now >= 4.0 - 1e-9

    def test_errors(self):
        env, link = make_link()
        flow = link.open_flow("f")
        other_env = Environment()
        other_link = SharedLink(other_env, capacity=10)
        with pytest.raises(RuntimeError):
            other_link.transmit(flow, 10)
        with pytest.raises(ValueError):
            link.transmit(flow, -5)
        link.transmit(flow, 100.0)
        with pytest.raises(RuntimeError):
            link.transmit(flow, 1.0)  # already transmitting
        with pytest.raises(RuntimeError):
            link.close_flow(flow)  # still busy


class TestCloseFlow:
    def test_close_idle_flow(self):
        env, link = make_link()
        flow = link.open_flow("f")
        link.close_flow(flow)
        with pytest.raises(RuntimeError, match="not open"):
            link.transmit(flow, 10.0)

    def test_close_never_opened_flow_names_it(self):
        env, link = make_link()
        other_env = Environment()
        other_link = SharedLink(other_env, capacity=10)
        stranger = other_link.open_flow("stranger")
        with pytest.raises(RuntimeError, match="'stranger' is not open"):
            link.close_flow(stranger)

    def test_double_close_names_the_flow(self):
        env, link = make_link()
        flow = link.open_flow("twice")
        link.close_flow(flow)
        with pytest.raises(RuntimeError, match="'twice' is not open"):
            link.close_flow(flow)

    def test_close_does_not_disturb_running_transfers(self):
        env, link = make_link(100.0)
        busy = link.open_flow("busy")
        idle = link.open_flow("idle")
        done = link.transmit(busy, 100.0)
        link.close_flow(idle)
        env.run()
        assert done.triggered
        assert env.now == pytest.approx(1.0)


class TestOncePerInstantPricing:
    def test_burst_at_one_instant_reprices_once(self, monkeypatch):
        env, link = make_link(1000.0)
        flows = [link.open_flow(f"f{i}") for i in range(50)]
        reprices = []
        recompute = SharedLink._recompute

        def spy(self):
            reprices.append(env.now)
            recompute(self)

        monkeypatch.setattr(SharedLink, "_recompute", spy)

        def burst():
            yield env.timeout(1.0)
            for flow in flows:
                link.transmit(flow, 100.0)

        env.process(burst())
        env.run()
        # One re-price for the 50 arrivals, one when all 50 finish.
        assert reprices == [1.0, 6.0]
        assert link.total_bytes == pytest.approx(5000.0)

    def test_queries_mid_instant_see_the_change(self):
        env, link = make_link(100.0)
        a, b = link.open_flow("a"), link.open_flow("b")
        seen = {}

        def proc():
            link.transmit(a, 1000.0)
            seen["a alone"] = link.current_rate(a)
            seen["preview beside a"] = link.allocation_preview()
            link.transmit(b, 1000.0)
            seen["a.rate before the instant ends"] = a.rate
            seen["a shared"] = link.current_rate(a)
            seen["preview beside a and b"] = link.allocation_preview()
            yield env.timeout(1.0)
            seen["b.rate once settled"] = b.rate

        env.process(proc())
        env.run()
        assert seen == {
            "a alone": 100.0,
            "preview beside a": 50.0,
            "a.rate before the instant ends": 100.0,
            "a shared": 50.0,
            "preview beside a and b": pytest.approx(100.0 / 3),
            "b.rate once settled": 50.0,
        }

    def test_change_retires_a_wake_up_due_at_its_instant(self, monkeypatch):
        env, link = make_link(100.0)
        a, b = link.open_flow("a"), link.open_flow("b")
        wakes = []
        on_wake = SharedLink._on_wake

        def spy(self, event):
            wakes.append(env.now)
            on_wake(self, event)

        monkeypatch.setattr(SharedLink, "_on_wake", spy)

        def poker():
            # Scheduled before the link's wake-up for t=1, so it runs first.
            yield env.timeout(1.0)
            link.transmit(b, 100.0)

        def sender():
            yield link.transmit(a, 100.0)

        env.process(poker())
        env.process(sender())
        env.run()
        # The transmit at t=1 completes `a` and re-prices; the wake-up it
        # made redundant never fires as an extra event.
        assert wakes == [2.0]
        assert a.bytes_done == b.bytes_done == 100.0

    def test_flows_finishing_at_one_instant_complete_in_open_order(self):
        env, link = make_link(100.0)
        first, second = link.open_flow("first"), link.open_flow("second")
        order = []

        def proc(flow):
            yield link.transmit(flow, 100.0)
            order.append((flow.name, env.now))

        # Transmit in the reverse of open order; both finish at t=2.
        env.process(proc(second))
        env.process(proc(first))
        env.run()
        assert order == [("first", 2.0), ("second", 2.0)]
