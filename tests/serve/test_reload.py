"""Hot config reload: validation, live-flow retune, zero-drop, SIGHUP.

The reload contract under test (``TransferServer.request_reload``):

* validation is all-or-nothing — a bad key or value raises before
  anything is enqueued, so a failed reload leaves the daemon untouched;
* the loop thread applies changes between passes — live flows are
  retuned in place and **no connection is dropped**;
* flows whose client pinned a level in the hello keep it — a reload
  only moves server-chosen levels;
* ``SIGHUP`` on the CLI daemon re-reads ``--config`` (subprocess test);
* the validator is ``ServeConfig``'s own, so a value a reload rejects
  is rejected at construction too.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.core.levels import default_level_table
from repro.data import Compressibility, SyntheticCorpus
from repro.serve import (
    FlowState,
    MODE_ECHO,
    RELOADABLE_KEYS,
    ServeClient,
    ServeConfig,
    TransferServer,
    encode_hello,
)
from repro.telemetry.events import BUS, ConfigReloaded
from repro.telemetry.exporters import InMemoryExporter

LEVELS = default_level_table()

#: (bad change set, error message pattern) — rejected by a reload and
#: by ServeConfig alike.
BAD_VALUES = [
    ({"level": "gzip-1"}, "unknown level"),
    ({"level": 3}, "level must be a name"),
    ({"policy": "round-robin"}, "unknown policy"),
    ({"policy": 7}, "policy must be a name"),
    ({"control_interval": 0.0}, "must be positive"),
    ({"control_interval": "soon"}, None),
    ({"idle_timeout": -1}, "must be >= 0"),
    ({"max_flows": 0}, "must be >= 1"),
    ({"max_flows": True}, "must be an integer"),
    ({"max_queued_jobs": -5}, "must be >= 0"),
    ({"max_queued_jobs": 2.5}, "must be an integer"),
]


@pytest.fixture(scope="module")
def payload():
    corpus = SyntheticCorpus(file_size=64 * 1024, seed=31)
    return (
        corpus.payload(Compressibility.HIGH) * 8
        + corpus.payload(Compressibility.MODERATE) * 4
    )  # ~768 KB


@pytest.fixture()
def server():
    srv = TransferServer(
        ServeConfig(port=0, max_flows=32, codec_workers=2, epoch_seconds=0.05)
    )
    srv.start()
    yield srv
    srv.stop(drain=False)


def _settle(predicate, deadline: float = 5.0) -> bool:
    end = time.monotonic() + deadline
    while not predicate():
        if time.monotonic() > end:
            return False
        time.sleep(0.02)
    return True


def _open_raw_flow(server, params=None) -> socket.socket:
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.sendall(encode_hello(MODE_ECHO, params or {}))
    return sock


def _streaming(server) -> int:
    return sum(
        1
        for flow in list(server._flows.values())
        if flow.state is FlowState.STREAMING
    )


def _only_flow(server):
    return next(iter(server._flows.values()))


class TestValidation:
    def test_unknown_key_rejected_before_enqueue(self, server):
        with pytest.raises(ValueError, match="not a reloadable key"):
            server.request_reload({"level": "HEAVY", "port": 9999})
        time.sleep(0.1)
        assert server.reloads == 0
        assert server.config.level is None  # the valid half not applied

    @pytest.mark.parametrize("changes,match", BAD_VALUES)
    def test_bad_values_rejected(self, server, changes, match):
        with pytest.raises(ValueError, match=match):
            server.request_reload(changes)
        assert server.reloads == 0

    def test_normalized_change_set_returned(self, server):
        normalized = server.request_reload(
            {"level": "adaptive", "control_interval": 2, "max_flows": 8}
        )
        assert normalized == {
            "level": "adaptive",
            "control_interval": 2.0,
            "max_flows": 8,
        }
        assert set(normalized) <= set(RELOADABLE_KEYS)

    def test_empty_change_set_is_a_noop(self, server):
        assert server.request_reload({}) == {}
        time.sleep(0.1)
        assert server.reloads == 0


class TestOneValidator:
    """Startup, ``--config`` and reload share ServeConfig's validator."""

    @pytest.mark.parametrize("changes,match", BAD_VALUES)
    def test_bad_values_rejected_at_construction(self, changes, match):
        with pytest.raises(ValueError, match=match):
            ServeConfig(**changes)

    @pytest.mark.parametrize(
        "changes,match",
        [
            ({"epoch_seconds": 0}, "epoch_seconds must be positive"),
            ({"codec_workers": -1}, "codec_workers must be >= 0"),
            ({"idle_timeout": float("nan")}, "idle_timeout must be a number"),
        ],
    )
    def test_epoch_workers_and_nan_rejected(self, changes, match):
        with pytest.raises(ValueError, match=match):
            ServeConfig(**changes)

    def test_floats_normalized_and_config_frozen(self):
        config = ServeConfig(idle_timeout=3, epoch_seconds=1, control_interval=2)
        floats = (config.idle_timeout, config.epoch_seconds, config.control_interval)
        assert floats == (3.0, 1.0, 2.0)
        assert all(type(value) is float for value in floats)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_flows = 1  # type: ignore[misc]

    def test_reload_swaps_in_a_new_config(self, server):
        before = server.config
        server.request_reload({"max_flows": 8, "idle_timeout": 30})
        assert _settle(lambda: server.reloads == 1)
        assert server.config is not before
        assert server.config == dataclasses.replace(
            before, max_flows=8, idle_timeout=30.0
        )
        assert server.last_reload["changed"] == ("idle_timeout", "max_flows")


class TestLiveFlowRetune:
    def test_level_reload_retunes_adaptive_flow(self, server):
        sock = _open_raw_flow(server)
        try:
            assert _settle(lambda: _streaming(server) == 1)
            flow = _only_flow(server)
            assert flow.controller.scheme.override is None  # adaptive
            server.request_reload({"level": "NO"})
            assert _settle(lambda: server.reloads == 1)
            assert flow.controller.scheme.override == LEVELS.index_of("NO")
            assert flow.echo_level == LEVELS.index_of("NO")
            assert server.last_reload["changed"] == ("level",)
            assert server.last_reload["flows_updated"] == 1

            # And back to adaptive: the override lifts.
            server.request_reload({"level": None})
            assert _settle(lambda: server.reloads == 2)
            assert flow.controller.scheme.override is None
            assert server.config.level is None
        finally:
            sock.close()

    def test_client_pinned_flow_keeps_its_level(self, server):
        sock = _open_raw_flow(server, params={"level": "HEAVY"})
        try:
            assert _settle(lambda: _streaming(server) == 1)
            flow = _only_flow(server)
            heavy = LEVELS.index_of("HEAVY")
            assert flow.echo_level == heavy
            server.request_reload({"level": "NO"})
            assert _settle(lambda: server.reloads == 1)
            assert flow.echo_level == heavy  # pinned by the client's hello
            assert server.last_reload["flows_updated"] == 0
            # New defaults still apply to the *next* flow.
            assert server.config.level == "NO"
        finally:
            sock.close()

    def test_reload_to_same_level_counts_no_flows(self, server):
        sock = _open_raw_flow(server)
        try:
            assert _settle(lambda: _streaming(server) == 1)
            server.request_reload({"level": "MEDIUM"})
            assert _settle(lambda: server.reloads == 1)
            assert server.last_reload["flows_updated"] == 1
            server.request_reload({"level": "MEDIUM"})
            assert _settle(lambda: server.reloads == 2)
            # The request is processed, but nothing actually changed.
            assert server.last_reload["changed"] == ()
            assert server.last_reload["flows_updated"] == 0
        finally:
            sock.close()

    def test_policy_swap_attaches_and_detaches_controller(self, server):
        sock = _open_raw_flow(server)
        try:
            assert _settle(lambda: _streaming(server) == 1)
            assert server.controller is None
            server.request_reload({"policy": "fair-share"})
            assert _settle(lambda: server.controller is not None)
            assert server.controller.policy.name == "fair-share"
            server.request_reload({"policy": None})
            assert _settle(lambda: server.controller is None)
            flow = _only_flow(server)
            assert flow.control_weight == 1.0  # returned to self-rule
        finally:
            sock.close()

    def test_reload_publishes_config_reloaded_event(self, server):
        exporter = InMemoryExporter().attach(BUS)  # subscribing activates
        try:
            server.request_reload({"idle_timeout": 45.0})
            assert _settle(lambda: server.reloads == 1)
            assert _settle(lambda: len(exporter.of_type(ConfigReloaded)) == 1)
            (event,) = exporter.of_type(ConfigReloaded)
            assert event.changed == ("idle_timeout",)
            assert event.reloads == 1
        finally:
            exporter.detach()


class TestZeroDrop:
    def test_reloads_under_live_traffic_drop_nothing(self, server, payload):
        """Three reloads while 8 echo flows stream: all verify, none drop."""
        host, port = server.address
        results, errors = [], []

        def run_flow():
            try:
                client = ServeClient(host, port, timeout=60.0)
                results.append(client.echo(payload * 2, collect=False))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=run_flow) for _ in range(8)]
        for t in threads:
            t.start()
        assert _settle(lambda: server.active_flows >= 4)
        for level in ("NO", "HEAVY", None):
            server.request_reload({"level": level})
            time.sleep(0.05)
        for t in threads:
            t.join(timeout=120.0)
        assert errors == []
        assert len(results) == 8
        assert all(r.trailer["ok"] for r in results)
        assert _settle(lambda: server.flows_completed == 8)
        assert server.flows_failed == 0
        assert _settle(lambda: server.reloads == 3)


class TestSighup:
    def test_sighup_rereads_config_file(self, tmp_path):
        """CLI daemon + --config: SIGHUP applies the file, drops nothing."""
        config_path = tmp_path / "serve.json"
        config_path.write_text(json.dumps({"level": "NO"}))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.io.cli", "serve",
                "--port", "0", "--workers", "2",
                "--config", str(config_path),
                "--admin-port", "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=os.environ.copy(),
        )
        try:
            banner = proc.stdout.readline().strip()
            assert re.match(r"serving on \S+:\d+$", banner), banner
            admin_banner = proc.stdout.readline().strip()
            match = re.match(r"admin on (\S+):(\d+)$", admin_banner)
            assert match, f"unexpected banner {admin_banner!r}"
            admin = f"http://{match.group(1)}:{match.group(2)}"

            def status():
                with urllib.request.urlopen(
                    admin + "/status", timeout=10.0
                ) as resp:
                    return json.loads(resp.read())

            assert status()["level"] == "NO"
            config_path.write_text(
                json.dumps({"level": "HEAVY", "idle_timeout": 99.0})
            )
            proc.send_signal(signal.SIGHUP)
            assert _settle(lambda: status()["reloads"] == 1, deadline=10.0)
            doc = status()
            assert doc["level"] == "HEAVY"
            assert doc["idle_timeout"] == 99.0

            # A bad rewrite must not kill the daemon or apply anything.
            config_path.write_text(json.dumps({"level": "bogus"}))
            proc.send_signal(signal.SIGHUP)
            time.sleep(0.3)
            doc = status()
            assert doc["reloads"] == 1
            assert doc["level"] == "HEAVY"

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30.0)
            assert proc.returncode == 0
            assert "drained: 0 completed" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
