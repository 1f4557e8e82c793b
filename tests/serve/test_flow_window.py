"""One per-flow window for decodes and echo re-encodes, and pump quiescence.

A flow's ``max_inflight_blocks`` bounds ``decode_in_flight +
encode_in_flight`` together.  Identity (NO-level) jobs complete inside
their submit, so decodes no longer pace re-encodes: without the shared
window a flow whose re-encodes are slow would pile every buffered
frame's re-encode onto the codec pool.  ``pump`` runs to quiescence,
so buffered identity frames are decoded, re-encoded and queued in one
call.
"""

from __future__ import annotations

import socket

import pytest

from repro.codecs.block import _compress_payload, decode_payload, encode_block
from repro.codecs.null_codec import NullCodec
from repro.core.buffers import BufferPool
from repro.core.levels import default_level_table
from repro.core.pipeline import CodecThreadPool
from repro.serve import ServeClient, ServeConfig, TransferServer
from repro.serve.flow import Flow, FlowState
from repro.serve.protocol import MODE_ECHO, encode_hello

WINDOW = 4
BLOCK = 1024


class DecodeNowHoldCompress:
    """Contract stub pool: every decompress finishes inside its submit,
    every compress is held until :meth:`release` runs it."""

    def __init__(self) -> None:
        self.held = []
        self.compress_submitted = 0

    def submit_decompress(
        self, header, payload, *, check_crc=False, registry, on_done, span=None
    ):
        try:
            data = decode_payload(header, payload.view, registry, check_crc=check_crc)
        finally:
            payload.release()  # the flow always hands over a pooled buffer
        on_done(None, data)

    def submit_compress(
        self, data, codec, *, allow_stored_fallback=True, on_done, span=None
    ):
        self.compress_submitted += 1
        self.held.append((data, codec, allow_stored_fallback, on_done))

    def release(self, n: int = 1) -> None:
        for _ in range(min(n, len(self.held))):
            data, codec, fallback, on_done = self.held.pop(0)
            header, payload = _compress_payload(data, codec, fallback)
            on_done(None, header, payload)


def _frames(n: int) -> list:
    return [bytes([i % 251]) * BLOCK for i in range(n)]


@pytest.fixture()
def wire():
    """(flow-side socket, peer socket); the flow side is non-blocking."""
    a, b = socket.socketpair()
    a.setblocking(False)
    yield a, b
    a.close()
    b.close()


def _echo_flow(sock, codec_pool) -> Flow:
    return Flow(
        1,
        sock,
        peer="test",
        levels=default_level_table(),
        codec_pool=codec_pool,
        buffer_pool=BufferPool(),
        notify=lambda flow: None,
        max_inflight_blocks=WINDOW,
        clock=lambda: 0.0,
    )


def _send_echo_stream(peer, blocks, *, eof: bool) -> None:
    peer.sendall(encode_hello(MODE_ECHO, {"level": "NO", "block_size": BLOCK}))
    for block in blocks:
        peer.sendall(encode_block(block, NullCodec()).frame)
    if eof:
        peer.shutdown(socket.SHUT_WR)


def _serve_once(flow: Flow) -> None:
    """One loop visit: a read if the flow wants one, then a pump."""
    if flow.wants_read:
        flow.handle_read()
    flow.pump()


def _in_window(flow: Flow) -> bool:
    return flow.decode_in_flight + flow.encode_in_flight <= WINDOW


class TestOneWindow:
    def test_held_reencodes_stay_inside_the_window(self, wire):
        """32 NO frames against a pool that holds every re-encode: the
        window stops at 4 outstanding re-encodes instead of 32."""
        sock, peer = wire
        pool = DecodeNowHoldCompress()
        flow = _echo_flow(sock, pool)
        _send_echo_stream(peer, _frames(32), eof=True)
        for _ in range(8):
            _serve_once(flow)
            assert _in_window(flow)
        assert flow.ok, flow.failure
        assert pool.compress_submitted == WINDOW
        for _ in range(200):
            if flow.state is FlowState.CLOSED:
                break
            pool.release()
            _serve_once(flow)
            assert _in_window(flow)
            while flow.wants_write and flow.handle_write():
                pass
            flow.pump()
        assert flow.ok, flow.failure
        assert flow.state is FlowState.CLOSED
        assert (flow.blocks_in, flow.blocks_out) == (32, 32)

    def test_backpressured_flow_at_eof_is_not_truncated(self, wire):
        """A full window with whole frames still buffered at EOF is
        backpressure, not a peer that half-closed mid-frame."""
        sock, peer = wire
        pool = DecodeNowHoldCompress()
        flow = _echo_flow(sock, pool)
        _send_echo_stream(peer, _frames(12), eof=True)
        _serve_once(flow)  # the hello and every frame
        assert flow.state is FlowState.STREAMING and not flow._eof
        flow.handle_read()  # the EOF, window or not
        assert flow._eof
        flow.pump()
        assert flow.ok, flow.failure
        assert flow.state is FlowState.STREAMING
        assert flow._rx and flow.encode_in_flight == WINDOW
        pool.release(WINDOW)
        flow.pump()
        assert flow.ok, flow.failure


class TestPumpQuiescence:
    def test_one_pump_consumes_sixteen_buffered_identity_frames(self, wire):
        sock, peer = wire
        pool = CodecThreadPool(2, name="test-quiescence")
        try:
            flow = _echo_flow(sock, pool)
            _send_echo_stream(peer, _frames(16), eof=False)
            for _ in range(100):
                flow.handle_read()  # every buffered frame, window or not
            flow.pump()
            assert flow.ok, flow.failure
            assert (flow.blocks_in, flow.blocks_out) == (16, 16)
            assert not flow._rx
            assert flow.decode_in_flight == flow.encode_in_flight == 0
            stats = pool.stats()
            assert stats["caller_runs"] == stats["jobs_submitted"] == 32
        finally:
            pool.close()


def test_no_no_echo_flow_runs_every_job_on_the_loop_thread():
    srv = TransferServer(ServeConfig(port=0, codec_workers=2)).start()
    try:
        host, port = srv.address
        data = bytes(range(256)) * 2048  # 512 KiB
        result = ServeClient(host, port, timeout=30.0).echo(
            data, level="NO", server_level="NO", block_size=16 * 1024
        )
        assert result.data == data
        stats = srv.codec_pool.stats()
        assert stats["jobs_submitted"] == 2 * result.trailer["blocks_in"] > 0
        assert stats["caller_runs"] == stats["jobs_submitted"]
    finally:
        srv.stop(drain=False)
