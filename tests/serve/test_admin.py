"""Admin endpoint e2e: /metrics, /healthz, /flows, POST /reload.

The daemon under test is a real :class:`TransferServer` with real
client connections; every scrape goes over HTTP through the
:class:`AdminServer` on its own port.  The /metrics payload is
validated with the strict exposition parser from the telemetry tests —
if a hostile peer string or a NaN gauge could corrupt the exposition,
these tests fail.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.data import Compressibility, SyntheticCorpus
from repro.serve import (
    AdminServer,
    MODE_ECHO,
    ServeClient,
    ServeConfig,
    TransferServer,
    encode_hello,
    parse_control,
)
from repro.telemetry import instrumented

from tests.telemetry.test_exporters import parse_exposition


@pytest.fixture(scope="module")
def payload():
    corpus = SyntheticCorpus(file_size=64 * 1024, seed=29)
    return (
        corpus.payload(Compressibility.HIGH) * 8
        + corpus.payload(Compressibility.MODERATE) * 8
    )  # ~1 MB


@pytest.fixture()
def server():
    srv = TransferServer(
        ServeConfig(port=0, max_flows=32, codec_workers=2, epoch_seconds=0.05)
    )
    srv.start()
    yield srv
    srv.stop(drain=False)


@pytest.fixture()
def admin(server):
    with AdminServer(server, port=0) as endpoint:
        yield endpoint


def _settle(predicate, deadline: float = 5.0) -> bool:
    end = time.monotonic() + deadline
    while not predicate():
        if time.monotonic() > end:
            return False
        time.sleep(0.02)
    return True


def _request(admin, path: str, data: bytes = None):
    """HTTP request → (status, body bytes); non-2xx does not raise."""
    host, port = admin.address
    url = f"http://{host}:{port}{path}"
    req = urllib.request.Request(url, data=data)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _open_raw_flow(server) -> socket.socket:
    """A connected socket that completed the hello, then goes quiet.

    Keeps a STREAMING echo flow open for as long as the socket lives —
    the deterministic way to scrape a daemon with live flows.
    """
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.sendall(encode_hello(MODE_ECHO, {}))
    # The daemon acks only once the flow is STREAMING with its mode set.
    buf = bytearray()
    while (ack := parse_control(buf)) is None:
        chunk = sock.recv(4096)
        assert chunk, "daemon closed the connection before the hello ack"
        buf += chunk
    assert ack[0]["ok"], ack[0]
    return sock


class TestMetricsEndpoint:
    def test_scrape_while_16_flows_stream(self, server, admin):
        socks = [_open_raw_flow(server) for _ in range(16)]
        try:
            assert _settle(lambda: server.active_flows == 16)
            status, body = _request(admin, "/metrics")
            assert status == 200
            text = body.decode("utf-8")
            samples = parse_exposition(text)  # strict: raises on bad lines
            by_name = {
                name: value for name, labels, value in samples if not labels
            }
            assert by_name["repro_serve_up"] == 1.0
            assert by_name["repro_serve_active_flows"] == 16.0
            assert by_name["repro_serve_flows_accepted_total"] == 16.0
            flow_series = [
                (labels["flow_id"], labels["mode"])
                for name, labels, value in samples
                if name == "repro_serve_flow_level"
            ]
            assert len(flow_series) == 16
            assert all(mode == "echo" for _, mode in flow_series)
            assert len({fid for fid, _ in flow_series}) == 16
        finally:
            for sock in socks:
                sock.close()
        assert _settle(lambda: server.active_flows == 0)

    def test_registry_metrics_included_under_load(
        self, server, admin, payload
    ):
        with instrumented() as session:
            admin.registry = session.registry
            host, port = server.address
            result = ServeClient(host, port, timeout=30.0).echo(
                payload, collect=False
            )
            assert result.trailer["ok"]
            assert _settle(lambda: server.flows_completed == 1)
            status, body = _request(admin, "/metrics")
        assert status == 200
        samples = parse_exposition(body.decode("utf-8"))
        names = {name for name, _, _ in samples}
        # The span bridge feeds the decode-latency histogram the SLO
        # gate reads; a scrape must expose it.
        assert "span_serve_decode_seconds_count" in names
        assert "repro_serve_flows_completed_total" in names

    def test_hostile_peer_label_cannot_corrupt_exposition(
        self, server, admin, monkeypatch
    ):
        evil = 'evil"peer\nwith\\escapes'
        snapshot = [
            {
                "flow_id": 1,
                "peer": evil,
                "mode": "echo",
                "app_rate": 1.5,
                "observed_ratio": None,  # no window yet → series omitted
                "level": 2,
                "worker_weight": 1.0,
                "decode_in_flight": 0,
                "encode_in_flight": 0,
                "write_queue_bytes": 0,
            }
        ]
        monkeypatch.setattr(server, "flows_snapshot", lambda: snapshot)
        status, body = _request(admin, "/metrics")
        assert status == 200
        samples = parse_exposition(body.decode("utf-8"))
        peers = {
            labels["peer"]
            for name, labels, _ in samples
            if name.startswith("repro_serve_flow_")
        }
        assert peers == {evil}  # escaped on the wire, round-trips intact
        assert not any(
            name == "repro_serve_flow_observed_ratio" for name, _, _ in samples
        )


class TestHealthz:
    def test_ready_then_flips_during_drain(self, server, admin):
        status, body = _request(admin, "/healthz")
        assert status == 200
        detail = json.loads(body)
        assert detail["ready"] and detail["live"] and not detail["draining"]

        sock = _open_raw_flow(server)  # keeps the drain pending
        try:
            assert _settle(lambda: server.active_flows == 1)
            server.request_drain()
            assert _settle(
                lambda: _request(admin, "/healthz")[0] == 503, deadline=5.0
            )
            status, body = _request(admin, "/healthz")
            detail = json.loads(body)
            assert detail["draining"] and not detail["ready"]
            assert detail["live"]  # still serving the last flow
            assert detail["active_flows"] == 1
        finally:
            sock.close()
        # Draining already reads 503; wait for the loop itself to exit.
        assert _settle(lambda: not json.loads(_request(admin, "/healthz")[1])["live"])
        status, body = _request(admin, "/healthz")
        assert status == 503
        assert not json.loads(body)["live"]  # loop exited after the drain emptied

    def test_healthz_carries_internal_error_tally(self, server, admin):
        server._internal_error("test-site", OSError("boom"))
        server._internal_error("test-site", OSError("boom again"))
        status, body = _request(admin, "/healthz")
        assert status == 200  # suppressed errors degrade, not kill
        detail = json.loads(body)
        assert detail["internal_errors"] == 2
        assert detail["internal_error_sites"] == {"test-site": 2}
        samples = parse_exposition(
            _request(admin, "/metrics")[1].decode("utf-8")
        )
        by_site = {
            labels["site"]: value
            for name, labels, value in samples
            if name == "repro_serve_internal_errors"
        }
        assert by_site == {"test-site": 2.0}


class TestFlowsEndpoint:
    def test_snapshot_shape(self, server, admin):
        sock = _open_raw_flow(server)
        try:
            assert _settle(lambda: server.active_flows == 1)
            status, body = _request(admin, "/flows")
            assert status == 200
            doc = json.loads(body)
            assert doc["count"] == 1
            (flow,) = doc["flows"]
            assert flow["mode"] == "echo"
            assert flow["state"] == "streaming"
            assert flow["adaptive"] is True
            assert flow["age_seconds"] >= 0.0
        finally:
            sock.close()

    def test_status_and_404(self, server, admin):
        status, body = _request(admin, "/status")
        assert status == 200
        doc = json.loads(body)
        assert doc["active_flows"] == 0
        assert doc["uptime_seconds"] > 0.0
        assert doc["reloads"] == 0
        assert _request(admin, "/nope")[0] == 404
        assert _request(admin, "/nope", data=b"{}")[0] == 404


class TestReloadEndpoint:
    def test_apply_level_change(self, server, admin):
        status, body = _request(
            admin, "/reload", data=json.dumps({"level": "HEAVY"}).encode()
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["ok"] and doc["queued"]["level"] == "HEAVY"
        assert _settle(lambda: server.reloads == 1)
        assert server.config.level == "HEAVY"
        assert server.last_reload["changed"] == ("level",)

    def test_invalid_reload_rejected_with_400(self, server, admin):
        for bad in (
            {"level": "gzip-1"},
            {"policy": "no-such-policy"},
            {"control_interval": 0},
            {"max_flows": "many"},
            {"unknown_key": 1},
        ):
            status, body = _request(
                admin, "/reload", data=json.dumps(bad).encode()
            )
            assert status == 400, bad
            assert not json.loads(body)["ok"]
        assert _request(admin, "/reload", data=b"not json[")[0] == 400
        assert _request(admin, "/reload", data=b'["list"]')[0] == 400
        # Empty body without a --config file to re-read: nothing to do.
        assert _request(admin, "/reload", data=b"")[0] == 400
        time.sleep(0.1)
        assert server.reloads == 0  # nothing was applied

    def test_empty_body_rereads_config_source(self, server):
        source_calls = []

        def source():
            source_calls.append(1)
            return {"idle_timeout": 12.5}

        with AdminServer(server, port=0, config_source=source) as endpoint:
            status, body = _request(endpoint, "/reload", data=b"")
            assert status == 200
            assert json.loads(body)["queued"] == {"idle_timeout": 12.5}
            assert source_calls == [1]
            assert _settle(lambda: server.config.idle_timeout == 12.5)

    def test_config_source_error_is_a_400(self, server):
        def source():
            raise OSError("config file vanished")

        with AdminServer(server, port=0, config_source=source) as endpoint:
            status, body = _request(endpoint, "/reload", data=b"")
            assert status == 400
            assert "vanished" in json.loads(body)["error"]


class TestConcurrentScrapes:
    def test_parallel_scrapes_dont_interfere(self, server, admin):
        socks = [_open_raw_flow(server) for _ in range(4)]
        errors = []

        def scrape():
            try:
                for _ in range(5):
                    status, body = _request(admin, "/metrics")
                    assert status == 200
                    parse_exposition(body.decode("utf-8"))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        try:
            assert _settle(lambda: server.active_flows == 4)
            threads = [threading.Thread(target=scrape) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20.0)
            assert errors == []
        finally:
            for sock in socks:
                sock.close()
