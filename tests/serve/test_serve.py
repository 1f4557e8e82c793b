"""Integration tests for the repro.serve transfer service.

One daemon, many concurrent adaptive flows: byte identity per flow,
admission control, graceful drain, shared codec/buffer pools, per-flow
telemetry and no leaked threads or file descriptors.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.data import Compressibility, SyntheticCorpus
from repro.serve import (
    FlowRejectedError,
    ServeClient,
    ServeConfig,
    TransferServer,
)
from repro.serve.protocol import encode_hello, parse_control
from repro.core.pipeline import CodecThreadPool
from repro.telemetry.events import (
    BUS,
    BufferPoolStats,
    FlowAccepted,
    FlowClosed,
    FlowRejected,
    PipelineQueueDepth,
)

from ..conftest import ThreadBaseline


@pytest.fixture(scope="module")
def payload():
    corpus = SyntheticCorpus(file_size=64 * 1024, seed=23)
    return (
        corpus.payload(Compressibility.HIGH) * 4
        + corpus.payload(Compressibility.LOW) * 2
        + corpus.payload(Compressibility.MODERATE) * 4
    )  # ~640 KB of mixed compressibility


@pytest.fixture()
def server():
    srv = TransferServer(ServeConfig(port=0, max_flows=32, codec_workers=2))
    srv.start()
    yield srv
    srv.stop(drain=False)


def _client(server, **kwargs) -> ServeClient:
    host, port = server.address
    return ServeClient(host, port, timeout=30.0, **kwargs)


def _settle(predicate, deadline: float = 5.0) -> bool:
    end = time.monotonic() + deadline
    while not predicate():
        if time.monotonic() > end:
            return False
        time.sleep(0.02)
    return True


class TestSingleFlow:
    def test_upload_identity_via_trailer_crc(self, server, payload):
        result = _client(server).upload(payload)
        assert result.trailer["ok"] is True
        assert result.trailer["app_bytes"] == len(payload)
        assert result.trailer["blocks_in"] > 1
        assert result.app_bytes == len(payload)

    def test_upload_static_level_compresses(self, server, payload):
        result = _client(server).upload(payload, level="MEDIUM")
        assert result.wire_bytes_sent < len(payload)

    def test_empty_upload(self, server):
        result = _client(server).upload(b"")
        assert result.trailer["app_bytes"] == 0
        assert result.trailer["crc32"] == 0

    def test_echo_roundtrip_byte_identity(self, server, payload):
        result = _client(server).echo(payload, server_level="LIGHT")
        assert result.data == payload
        assert result.trailer["blocks_out"] == result.trailer["blocks_in"]

    def test_echo_frames_larger_than_the_client_read_buffer(self, server):
        """Blocks of MAX_BLOCK_LEN both ways: every echoed frame is larger
        than the client's reply buffer, which grows to take it."""
        from repro.codecs.block import MAX_BLOCK_LEN

        data = bytes(range(251)) * ((2 * MAX_BLOCK_LEN + 12345) // 251)
        result = _client(server).echo(
            data,
            level="LIGHT",
            server_level="NO",
            block_size=MAX_BLOCK_LEN,
            server_block_size=MAX_BLOCK_LEN,
            collect=True,
        )
        assert result.data == data
        assert result.trailer["blocks_out"] == 3

    def test_echo_adaptive_server_level(self, server, payload):
        result = _client(server).echo(payload)
        assert result.data == payload

    def test_parallel_client_writer(self, server, payload):
        result = _client(server).upload(payload, level="HEAVY", workers=3)
        assert result.trailer["app_bytes"] == len(payload)

    def test_sequential_flows_reuse_one_daemon(self, server, payload):
        client = _client(server)
        for _ in range(3):
            assert client.upload(payload, level="LIGHT").trailer["ok"]
        assert _settle(lambda: server.flows_completed >= 3)


class TestConcurrency:
    N = 16

    def test_16_concurrent_flows_byte_identical(self, server, payload):
        results, errors = [], []

        def run(i):
            try:
                client = _client(server)
                if i % 2:
                    results.append(client.upload(payload))
                else:
                    r = client.echo(payload)
                    assert r.data == payload, f"flow {i}: echoed bytes differ"
                    results.append(r)
            except Exception as exc:  # noqa: BLE001 - surfaced in assert
                errors.append((i, repr(exc)))

        workers = [threading.Thread(target=run, args=(i,)) for i in range(self.N)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60.0)
        assert not errors, errors
        assert len(results) == self.N
        for r in results:
            assert r.trailer["app_bytes"] == len(payload)

    def test_flows_share_one_codec_pool_and_buffer_pool(self, server, payload):
        client_threads = [
            threading.Thread(
                target=lambda: _client(server).upload(payload, level="LIGHT")
            )
            for _ in range(6)
        ]
        for t in client_threads:
            t.start()
        for t in client_threads:
            t.join(timeout=60.0)
        pool_stats = server.codec_pool.stats()
        buf_stats = server.buffer_pool.stats()
        # Every flow's decode jobs ran on the one shared pool...
        assert pool_stats["workers"] == 2
        assert pool_stats["jobs_submitted"] >= 6
        assert pool_stats["job_failures"] == 0
        # ...and every payload buffer came from the one shared slab pool.
        assert buf_stats["hits"] + buf_stats["misses"] >= 6
        assert buf_stats["hits"] > 0  # slabs actually got reused across flows

    def test_no_thread_per_flow(self, server, payload):
        # Loop thread + 2 codec workers, regardless of flow count.
        before = ThreadBaseline()
        barrier = threading.Barrier(8)

        def run():
            barrier.wait(timeout=30.0)
            _client(server).upload(payload)

        workers = [threading.Thread(target=run) for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60.0)
        # The 8 client threads are ours; the server side added none.
        assert before.new() == []
        assert _settle(lambda: server.flows_completed >= 8)


class TestAdmission:
    def test_rejects_over_max_flows(self, payload):
        srv = TransferServer(ServeConfig(port=0, max_flows=2, codec_workers=2)).start()
        try:
            host, port = srv.address
            holders = []
            for _ in range(2):
                s = socket.create_connection((host, port), timeout=5.0)
                s.sendall(encode_hello("sink", {}))
                holders.append(s)
            assert _settle(lambda: srv.active_flows == 2)
            with pytest.raises(FlowRejectedError, match="max-flows"):
                ServeClient(host, port, timeout=5.0).upload(b"x")
            assert srv.flows_rejected == 1
            for s in holders:
                s.close()
            # Capacity frees up once the holders disappear.
            assert _settle(lambda: srv.active_flows == 0)
            assert ServeClient(host, port, timeout=5.0).upload(b"y").trailer["ok"]
        finally:
            srv.stop(drain=False)

    def test_rejects_on_codec_queue_depth(self, payload):
        gate = threading.Event()
        pool = CodecThreadPool(1, name="test-gated")
        pool.submit(lambda index: gate.wait(30.0))  # occupy the worker
        pool.submit(lambda index: None)  # leave one job queued
        srv = TransferServer(
            ServeConfig(port=0, max_queued_jobs=1), codec_pool=pool
        ).start()
        try:
            host, port = srv.address
            with pytest.raises(FlowRejectedError, match="codec-queue-full"):
                ServeClient(host, port, timeout=5.0).upload(b"x")
            gate.set()
            assert _settle(lambda: pool.qsize() == 0)
            assert ServeClient(host, port, timeout=10.0).upload(b"y").trailer["ok"]
        finally:
            srv.stop(drain=False)
            gate.set()
            pool.close()

    def test_malformed_hello_rejected_with_error(self):
        srv = TransferServer(ServeConfig(port=0)).start()
        try:
            host, port = srv.address
            with socket.create_connection((host, port), timeout=5.0) as s:
                s.sendall(b"GARBAGE-NOT-A-HELLO")
                s.settimeout(5.0)
                buf = bytearray()
                while parse_control(buf) is None:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    buf.extend(chunk)
                reply = parse_control(buf)
                assert reply is not None, "no error control before close"
                body, _ = reply
                assert body["ok"] is False
            assert _settle(lambda: srv.flows_failed == 1)
        finally:
            srv.stop(drain=False)

    def test_truncated_frame_fails_flow_server_side(self, payload):
        srv = TransferServer(ServeConfig(port=0)).start()
        try:
            host, port = srv.address
            with socket.create_connection((host, port), timeout=5.0) as s:
                s.sendall(encode_hello("sink", {}))
                s.settimeout(5.0)
                s.recv(4096)  # admission ack
                s.sendall(b"AB")  # half a block header, then half-close
                s.shutdown(socket.SHUT_WR)
                assert _settle(lambda: srv.flows_failed == 1)
        finally:
            srv.stop(drain=False)


class TestDrain:
    def test_graceful_drain_completes_inflight_flow(self, payload):
        srv = TransferServer(ServeConfig(port=0, codec_workers=2)).start()
        host, port = srv.address
        out = {}

        def run():
            out["result"] = ServeClient(host, port, timeout=30.0).upload(payload * 3)

        t = threading.Thread(target=run)
        t.start()
        time.sleep(0.05)  # let the flow get mid-stream
        srv.stop(drain=True, timeout=30.0)
        t.join(timeout=30.0)
        assert "result" in out, "in-flight flow was cut off by drain"
        assert out["result"].trailer["ok"] is True
        assert srv.flows_failed == 0

    def test_drain_refuses_new_connections(self, payload):
        srv = TransferServer(ServeConfig(port=0)).start()
        host, port = srv.address
        srv.request_drain()
        assert _settle(lambda: srv._finished.is_set())
        with pytest.raises((ConnectionError, FlowRejectedError, OSError)):
            ServeClient(host, port, timeout=2.0).upload(b"x")
        srv.stop(drain=False)

    def test_drain_deadline_force_closes_stuck_flow(self):
        srv = TransferServer(ServeConfig(port=0)).start()
        host, port = srv.address
        s = socket.create_connection((host, port), timeout=5.0)
        s.sendall(encode_hello("sink", {}))
        assert _settle(lambda: srv.active_flows == 1)
        t0 = time.monotonic()
        srv.stop(drain=True, timeout=0.5)  # the held flow never finishes
        assert time.monotonic() - t0 < 10.0
        assert srv.flows_failed == 1
        s.close()


class TestLeaks:
    def _open_fds(self) -> int:
        return len(os.listdir("/proc/self/fd"))

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs procfs"
    )
    def test_no_fd_or_thread_leak_across_server_lifecycle(self, payload):
        before_threads = ThreadBaseline()
        before_fds = self._open_fds()
        for _ in range(2):
            srv = TransferServer(ServeConfig(port=0, codec_workers=2)).start()
            host, port = srv.address
            client = ServeClient(host, port, timeout=30.0)
            client.upload(payload)
            assert client.echo(payload, server_level="LIGHT").data == payload
            srv.stop(drain=True, timeout=15.0)
        assert before_threads.new(settle=5.0) == []
        assert _settle(lambda: self._open_fds() <= before_fds)

    def test_abrupt_client_disconnects_leak_nothing(self, payload):
        srv = TransferServer(ServeConfig(port=0, codec_workers=2)).start()
        host, port = srv.address
        before_fds = self._open_fds() if os.path.isdir("/proc/self/fd") else None
        for _ in range(8):
            s = socket.create_connection((host, port), timeout=5.0)
            s.sendall(encode_hello("sink", {}) + b"AB")
            s.close()
        assert _settle(lambda: srv.flows_failed + srv.flows_completed >= 8)
        assert srv.active_flows == 0
        if before_fds is not None:
            assert _settle(lambda: self._open_fds() <= before_fds)
        srv.stop(drain=True, timeout=10.0)


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def clean_bus(self):
        BUS.clear()
        yield
        BUS.clear()

    def test_flow_lifecycle_events(self, payload):
        events = []
        BUS.subscribe(events.append)
        srv = TransferServer(ServeConfig(port=0, max_flows=1, codec_workers=2)).start()
        try:
            host, port = srv.address
            client = ServeClient(host, port, timeout=30.0)
            client.upload(payload)
            holder = socket.create_connection((host, port), timeout=5.0)
            holder.sendall(encode_hello("sink", {}))
            assert _settle(lambda: srv.active_flows == 1)
            with pytest.raises(FlowRejectedError):
                client.upload(b"x")
            holder.close()
            assert _settle(lambda: srv.active_flows == 0)
        finally:
            srv.stop(drain=True, timeout=10.0)

        accepted = [e for e in events if isinstance(e, FlowAccepted)]
        closed = [e for e in events if isinstance(e, FlowClosed)]
        rejected = [e for e in events if isinstance(e, FlowRejected)]
        assert len(accepted) >= 1 and accepted[0].source == "serve"
        assert accepted[0].mode == "sink"
        assert rejected and rejected[0].reason == "max-flows"
        done = [e for e in closed if e.ok]
        assert done and done[0].app_bytes == len(payload)
        assert done[0].blocks_in > 0 and done[0].seconds > 0

    def test_shared_pool_counters_published(self, payload):
        depth_events, pool_events = [], []
        BUS.subscribe(depth_events.append, PipelineQueueDepth)
        BUS.subscribe(pool_events.append, BufferPoolStats)
        srv = TransferServer(ServeConfig(port=0, codec_workers=2)).start()
        try:
            host, port = srv.address
            ServeClient(host, port, timeout=30.0).upload(payload, level="LIGHT")
        finally:
            srv.stop(drain=True, timeout=10.0)
        serve_depth = [e for e in depth_events if e.source == "serve-codec"]
        serve_pool = [e for e in pool_events if e.source == "serve"]
        assert serve_depth and serve_depth[0].workers == 2
        assert serve_pool
        final = serve_pool[-1]
        assert final.hits + final.misses > 0

    def test_idle_daemon_publishes_nothing(self):
        events = []
        srv = TransferServer(ServeConfig(port=0)).start()
        try:
            host, port = srv.address
            ServeClient(host, port, timeout=10.0).upload(b"quiet")
        finally:
            srv.stop(drain=True, timeout=10.0)
        BUS.subscribe(events.append)  # subscribed only after the fact
        assert events == []
