"""Fleet control plane wired through the transfer service.

Covers the serve-side actuation path of :mod:`repro.control`: config
validation, the per-flow ``apply_control`` knobs (level override,
decode-window weight, in-band ``{"ctl": ...}`` announcement), the
server's loop-less ``_rates_pass`` → policy → actuator chain under a
fake clock, and one end-to-end run where a greedy policy pins a
provably-incompressible live flow mid-stream.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time

import pytest

from repro.core.buffers import BufferPool
from repro.core.controller import AdaptiveController
from repro.core.levels import default_level_table
from repro.core.pipeline import CodecThreadPool
from repro.schemes import ManagedScheme, RateBasedScheme
from repro.serve import ServeClient, ServeConfig, TransferServer
from repro.serve.flow import Flow, FlowState
from repro.serve.protocol import parse_control


def echo_controller():
    """An echo flow's controller, built as the flow's hello builds it."""
    return AdaptiveController(
        n_levels=4, clock_start=0.0, scheme=ManagedScheme(RateBasedScheme(4))
    )


class TestConfig:
    def test_bad_control_interval_rejected(self):
        with pytest.raises(ValueError, match="control_interval"):
            ServeConfig(control_interval=0.0)

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown policy"):
            TransferServer(ServeConfig(port=0, policy="no-such-policy"))

    def test_no_policy_means_no_controller(self):
        srv = TransferServer(ServeConfig(port=0))
        try:
            assert srv.controller is None
        finally:
            srv._teardown(listener_open=True)


class TestFlowApplyControl:
    @pytest.fixture()
    def flow(self):
        pool = CodecThreadPool(1, name="test-ctl")
        a, b = socket.socketpair()
        fl = Flow(
            7,
            a,
            peer="test",
            levels=default_level_table(),
            codec_pool=pool,
            buffer_pool=BufferPool(),
            notify=lambda f: None,
            max_inflight_blocks=4,
            clock=lambda: 0.0,
        )
        fl.state = FlowState.STREAMING
        fl.mode = "echo"
        fl.controller = echo_controller()
        yield fl
        a.close()
        b.close()
        pool.close()

    def test_pin_and_weight_actuate_and_announce(self, flow):
        assert flow.apply_control(0, 0.25) is True
        assert flow.echo_level == 0
        assert flow._max_inflight == 1  # 4 * 0.25
        # The change was announced in-band as a ctl control frame.
        assert len(flow._out) == 1
        body, _ = parse_control(bytes(flow._out[0]))
        assert body == {"ctl": "rebalance", "level": 0, "weight": 0.25}

    def test_idempotent_reapply_queues_nothing(self, flow):
        flow.apply_control(2, 2.0)
        queued = len(flow._out)
        assert flow.apply_control(2, 2.0) is False
        assert len(flow._out) == queued

    def test_release_restores_adaptive_and_window(self, flow):
        flow.apply_control(0, 0.25)
        assert flow.apply_control(None, 1.0) is True
        assert flow._max_inflight == 4
        # Override cleared: the per-flow scheme decides again.
        assert flow.controller.scheme.override is None

    def test_no_announcement_outside_streaming(self, flow):
        flow.state = FlowState.DRAINING
        assert flow.apply_control(0, 0.5) is True
        assert not flow._out  # actuated silently; trailer stays last

    def test_sample_rates_windows(self, flow):
        assert flow.sample_rates(0.1, min_interval=0.25) is None
        flow.app_bytes = 1_000_000
        flow.wire_bytes_in = 950_000
        rate, ratio = flow.sample_rates(0.5, min_interval=0.25)
        assert rate == pytest.approx(2_000_000.0)
        assert ratio == pytest.approx(0.95)
        # Idle window: no app bytes moved, ratio is unknowable.
        rate, ratio = flow.sample_rates(1.0, min_interval=0.25)
        assert rate == 0.0
        assert ratio is None


class TestServerControlPass:
    def test_greedy_pins_incompressible_flow(self):
        now = [0.0]
        srv = TransferServer(
            ServeConfig(
                port=0,
                policy="greedy-throughput",
                control_interval=0.5,
                codec_workers=2,
            ),
            clock=lambda: now[0],
        )
        a, b = socket.socketpair()
        try:
            srv._selector = selectors.DefaultSelector()
            flow = Flow(
                1,
                a,
                peer="test",
                levels=default_level_table(),
                codec_pool=srv.codec_pool,
                buffer_pool=srv.buffer_pool,
                notify=lambda f: None,
                clock=lambda: now[0],
            )
            flow.state = FlowState.STREAMING
            flow.mode = "echo"
            flow.controller = echo_controller()
            flow.controller.scheme.set_override(2)  # "currently compressing"
            srv._flows[1] = flow
            srv._masks[1] = 0
            srv._announce(flow)

            # One epoch's worth of traffic that compressed to nothing.
            now[0] = 1.0
            flow.app_bytes = 4_000_000
            flow.wire_bytes_in = 4_100_000
            srv._rates_pass()

            assert srv.controller.rebalances == 1
            asg = srv.controller.assignment_for(1)
            assert asg.level == 0 and asg.weight < 1.0
            assert flow.echo_level == 0
            assert flow._max_inflight == 1
            # Interval gate: an immediate second pass does not re-run.
            srv._rates_pass()
            assert srv.controller.rebalances == 1
        finally:
            srv._teardown(listener_open=True)
            b.close()

    def test_closed_flow_leaves_controller_state(self):
        srv = TransferServer(
            ServeConfig(port=0, policy="fair-share", codec_workers=2)
        )
        a, b = socket.socketpair()
        try:
            srv._selector = selectors.DefaultSelector()
            flow = Flow(
                1,
                a,
                peer="test",
                levels=default_level_table(),
                codec_pool=srv.codec_pool,
                buffer_pool=srv.buffer_pool,
                notify=lambda f: None,
            )
            flow.state = FlowState.STREAMING
            flow.mode = "sink"
            srv._flows[1] = flow
            srv._masks[1] = 0
            srv._announce(flow)
            assert srv.controller.flow_count == 1
            flow.state = FlowState.CLOSED
            srv._close_flow(flow)
            assert srv.controller.flow_count == 0
        finally:
            srv._teardown(listener_open=True)
            b.close()


class TestEndToEnd:
    def test_greedy_rebalances_live_incompressible_flow(self):
        """A live NO-level random-data echo flow gets pinned mid-stream.

        The client streams incompressible chunks until the server's
        fleet controller demonstrably pinned the flow (observed via the
        public assignment API), then finishes; the pushed ``ctl`` frame
        must have reached the client before the trailer.
        """
        srv = TransferServer(
            ServeConfig(
                port=0,
                policy="greedy-throughput",
                control_interval=0.2,
                epoch_seconds=0.1,
                codec_workers=2,
            )
        )
        srv.start()
        stop = threading.Event()

        def chunks():
            for _ in range(2000):
                yield os.urandom(64 * 1024)
                if stop.is_set():
                    return
                time.sleep(0.005)

        out = {}

        def run_client():
            host, port = srv.address
            out["result"] = ServeClient(host, port, timeout=30.0).echo(
                chunks(), level=0, collect=False
            )

        worker = threading.Thread(target=run_client)
        worker.start()
        try:
            deadline = time.monotonic() + 20.0
            pinned = False
            while time.monotonic() < deadline:
                asg = srv.controller.assignment_for(1)
                if asg.level == 0 and asg.weight < 1.0:
                    pinned = True
                    break
                time.sleep(0.02)
            stop.set()
            worker.join(timeout=30.0)
            assert pinned, "controller never pinned the incompressible flow"
            result = out["result"]
            assert result.trailer["ok"] is True
            rebalances = [c for c in result.controls if c.get("ctl") == "rebalance"]
            assert rebalances, "no in-band rebalance frame reached the client"
            assert rebalances[-1]["level"] == 0
        finally:
            stop.set()
            srv.stop(drain=False)
