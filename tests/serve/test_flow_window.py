"""One per-flow window for decodes and echo re-encodes, and pump quiescence.

A flow's ``max_inflight_blocks`` bounds ``decode_in_flight +
encode_in_flight`` together.  Identity (NO-level) frames are checked on
the loop thread as they are parsed, so decodes no longer pace
re-encodes: without the shared window a flow whose re-encodes are slow
would pile every buffered frame's re-encode onto the codec pool.
``pump`` runs to quiescence, so buffered identity frames are checked,
echoed and queued in one call, without a single pool job.
"""

from __future__ import annotations

import itertools
import os
import random
import socket
import sys
import threading
import time
import zlib

import pytest

from repro.codecs.block import (
    FORMAT_VERSION,
    HEADER,
    HEADER_SIZE,
    MAGIC,
    _compress_payload,
    decode_block,
    decode_header,
    decode_payload,
    encode_block,
)
from repro.codecs.null_codec import NullCodec
from repro.core.buffers import BufferPool
from repro.core.levels import default_level_table
from repro.core.pipeline import CodecThreadPool
from repro.serve import ServeClient, ServeConfig, TransferServer
from repro.serve.flow import IOV_MAX, Flow, FlowState
from repro.serve.protocol import (
    CONTROL_MAGIC,
    MODE_ECHO,
    MODE_SINK,
    encode_hello,
    parse_control,
)

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

    def submit_compress(self, data, codec, *, on_done, span=None):
        self.compress_submitted += 1
        self.held.append((data, codec, on_done))

    def release(self, n: int = 1) -> None:
        for _ in range(min(n, len(self.held))):
            data, codec, on_done = self.held.pop(0)
            header, payload = _compress_payload(data, codec)
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


def _echo_flow(sock, codec_pool, buffer_pool=None) -> Flow:
    return Flow(
        1,
        sock,
        peer="test",
        levels=default_level_table(),
        codec_pool=codec_pool,
        buffer_pool=buffer_pool if buffer_pool is not None else BufferPool(),
        notify=lambda flow: None,
        max_inflight_blocks=WINDOW,
        clock=lambda: 0.0,
    )


def _send_echo_stream(peer, blocks, *, eof: bool, level: str = "NO") -> None:
    """NO frames of ``blocks``; the flow echoes them at ``level``."""
    peer.sendall(encode_hello(MODE_ECHO, {"level": level, "block_size": BLOCK}))
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
        """32 NO frames echoed at LIGHT against a pool that holds every
        re-encode: the window stops at 4 outstanding re-encodes, not 32."""
        sock, peer = wire
        pool = DecodeNowHoldCompress()
        flow = _echo_flow(sock, pool)
        _send_echo_stream(peer, _frames(32), eof=True, level="LIGHT")
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
        _send_echo_stream(peer, _frames(12), eof=True, level="LIGHT")
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
            assert pool.stats()["jobs_submitted"] == 0
        finally:
            pool.close()


class CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


def test_in_order_identity_frames_take_no_lock(wire):
    """An identity frame that is next in decode order, echoed at NO when
    next in encode order, never touches the ordered results or their lock."""
    sock, peer = wire
    pool = CodecThreadPool(2, name="test-no-lock")
    try:
        flow = _echo_flow(sock, pool)
        flow._lock = lock = CountingLock()
        _send_echo_stream(peer, _frames(16), eof=False)
        for _ in range(100):
            flow.handle_read()
        flow.pump()
        assert flow.ok, flow.failure
        assert (flow.blocks_in, flow.blocks_out) == (16, 16)
        assert lock.acquired == 0
        assert flow._decode_results == flow._encode_results == {}
    finally:
        pool.close()


def test_no_no_echo_flow_submits_no_pool_job():
    srv = TransferServer(ServeConfig(port=0, codec_workers=2)).start()
    try:
        host, port = srv.address
        data = bytes(range(256)) * 2048  # 512 KiB
        result = ServeClient(host, port, timeout=30.0).echo(
            data, level="NO", server_level="NO", block_size=16 * 1024
        )
        assert result.data == data
        stats = srv.codec_pool.stats()
        assert stats["jobs_submitted"] == 0 < result.trailer["blocks_in"]
    finally:
        srv.stop(drain=False)


# -- fault paths and stored frames through one flow ----------------------

LEVELS = default_level_table()


def _no_frame(block: bytes) -> bytes:
    return bytes(encode_block(block, NullCodec()).frame)


def _light_frame(block: bytes) -> bytes:
    frame = bytes(encode_block(block, LEVELS.codec(LEVELS.index_of("LIGHT"))).frame)
    assert decode_header(frame).codec_id != 0  # really a codec frame
    return frame


def _flip_payload_byte(frame: bytes) -> bytes:
    damaged = bytearray(frame)
    damaged[HEADER_SIZE + 3] ^= 0x40
    return bytes(damaged)


def _hello(level: str, block_size, mode: str = MODE_ECHO) -> bytes:
    """A ``mode`` hello at ``level``, with ``block_size`` unless it is None."""
    params = {"level": level}
    if block_size is not None:
        params["block_size"] = block_size
    return encode_hello(mode, params)


def _drive(
    flow: Flow, peer, frames, *, level: str, block_size=BLOCK, mode: str = MODE_ECHO
) -> bytes:
    """Upload ``frames`` after ``_hello(level, block_size, mode)``, run the
    flow until it closes, then return every byte the peer received."""
    peer.sendall(_hello(level, block_size, mode))
    for frame in frames:
        peer.sendall(frame)
    peer.shutdown(socket.SHUT_WR)
    deadline = time.monotonic() + 10.0
    while flow.state is not FlowState.CLOSED:
        assert time.monotonic() < deadline, flow
        _serve_once(flow)
        while flow.wants_write and flow.handle_write():
            pass
        flow.pump()
        time.sleep(0.001)  # pool workers finish codec frames meanwhile
    flow.sock.close()
    received = []
    while True:
        chunk = peer.recv(1 << 16)
        if not chunk:
            return b"".join(received)
        received.append(chunk)


def _split(wire: bytes):
    """(control bodies, raw block frames) in the order they arrived."""
    controls, frames = [], []
    pos = 0
    while pos < len(wire):
        if wire.startswith(CONTROL_MAGIC, pos):
            body, used = parse_control(wire[pos:])
            controls.append(body)
            pos += used
        else:
            end = pos + HEADER_SIZE + decode_header(wire[pos:]).compressed_len
            assert end <= len(wire), "echo ends inside a frame"
            frames.append(wire[pos:end])
            pos = end
    return controls, frames


@pytest.fixture()
def codec_pool():
    pool = CodecThreadPool(2, name="test-fault-paths")
    yield pool
    pool.close()


def _assert_failed_cleanly(
    flow, codec_pool, buffers, wire, blocks, bad: int, *, pooled: bool
) -> None:
    """decode-error, no byte of frame ``bad`` or later echoed, no trailer,
    and every slab back in the buffer pool: identity frames take none,
    and ``pooled`` (codec) frames give back every one they took."""
    assert flow.failure.startswith("decode-error: CorruptBlockError("), flow.failure
    controls, echoed = _split(wire)
    assert all("crc32" not in body for body in controls)  # no trailer
    assert len(echoed) <= bad
    assert [decode_block(frame) for frame in echoed] == blocks[: len(echoed)]
    codec_pool.close()  # no job still holds a slab
    flow.pump()  # and no late result either
    stats = buffers.stats()
    assert stats["oversize"] == 0
    if pooled:
        assert stats["free_slabs"] == stats["misses"] > 0
    else:
        assert stats["hits"] == stats["misses"] == 0


class TestFaultPaths:
    def test_flipped_no_frame_fails_the_flow(self, wire, codec_pool):
        sock, peer = wire
        buffers = BufferPool()
        flow = _echo_flow(sock, codec_pool, buffers)
        blocks = _frames(6)
        frames = [_no_frame(b) for b in blocks]
        frames[3] = _flip_payload_byte(frames[3])
        wire_out = _drive(flow, peer, frames, level="NO")
        _assert_failed_cleanly(
            flow, codec_pool, buffers, wire_out, blocks, bad=3, pooled=False
        )

    def test_identity_length_mismatch_fails_the_flow(self, wire, codec_pool):
        sock, peer = wire
        buffers = BufferPool()
        flow = _echo_flow(sock, codec_pool, buffers)
        blocks = _frames(6)
        frames = [_no_frame(b) for b in blocks]
        lying = HEADER.pack(
            MAGIC, FORMAT_VERSION, 0, 0, BLOCK + 1, BLOCK, zlib.crc32(blocks[3])
        )
        frames[3] = lying + blocks[3]  # CRC right, lengths disagree
        wire_out = _drive(flow, peer, frames, level="NO")
        _assert_failed_cleanly(
            flow, codec_pool, buffers, wire_out, blocks, bad=3, pooled=False
        )
        assert "header claim" in flow.failure

    def test_flipped_light_frame_fails_through_the_pool(self, wire, codec_pool):
        sock, peer = wire
        buffers = BufferPool()
        flow = _echo_flow(sock, codec_pool, buffers)
        blocks = _frames(6)
        frames = [_light_frame(b) for b in blocks]
        frames[3] = _flip_payload_byte(frames[3])
        wire_out = _drive(flow, peer, frames, level="NO")
        _assert_failed_cleanly(
            flow, codec_pool, buffers, wire_out, blocks, bad=3, pooled=True
        )
        assert codec_pool.stats()["jobs_submitted"] > 0

    def test_stored_fallback_frames_echo_at_no_with_flags_zero(self, wire, codec_pool):
        sock, peer = wire
        flow = _echo_flow(sock, codec_pool)
        rng = random.Random(11)
        blocks = [rng.randbytes(BLOCK) for _ in range(6)]
        frames = [
            bytes(encode_block(b, LEVELS.codec(LEVELS.index_of("LIGHT"))).frame)
            for b in blocks
        ]
        assert all(decode_header(f).flags == 1 for f in frames)  # stored
        controls, echoed = _split(_drive(flow, peer, frames, level="NO"))
        assert flow.ok, flow.failure
        # Exactly what a NullCodec re-encode of each payload writes.
        assert echoed == [_no_frame(b) for b in blocks]
        assert all(decode_header(f).flags == 0 for f in echoed)
        assert controls[-1]["crc32"] == zlib.crc32(b"".join(blocks))

    @pytest.mark.parametrize("level", ["NO", "LIGHT"])
    def test_interleaved_no_and_light_frames_echo_in_order(
        self, wire, codec_pool, level
    ):
        sock, peer = wire
        flow = _echo_flow(sock, codec_pool)
        blocks = _frames(24)
        frames = [
            _no_frame(b) if i % 3 else _light_frame(b) for i, b in enumerate(blocks)
        ]
        controls, echoed = _split(_drive(flow, peer, frames, level=level))
        assert flow.ok, flow.failure
        assert [decode_block(frame) for frame in echoed] == blocks
        trailer = controls[-1]
        assert trailer["crc32"] == zlib.crc32(b"".join(blocks))
        assert trailer["app_bytes"] == len(blocks) * BLOCK
        assert trailer["blocks_in"] == trailer["blocks_out"] == len(blocks)

    def test_interleaved_frames_in_order_under_switch_stress(self, wire):
        """More pool workers than cores, a thread switch every few
        bytecodes: pool results and loop-thread results still land in
        order, and the fold matches the client's CRC."""
        sock, peer = wire
        pool = CodecThreadPool(2 * (os.cpu_count() or 1) + 2, name="test-stress")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            flow = _echo_flow(sock, pool)
            blocks = [bytes([i % 251, i % 7]) * (BLOCK // 2) for i in range(96)]
            frames = [
                _no_frame(b) if i % 2 else _light_frame(b) for i, b in enumerate(blocks)
            ]
            controls, echoed = _split(_drive(flow, peer, frames, level="NO"))
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert flow.ok, flow.failure
        assert [decode_block(frame) for frame in echoed] == blocks
        assert controls[-1]["crc32"] == zlib.crc32(b"".join(blocks))


class DelayingPool(CodecThreadPool):
    """A thread pool whose jobs start late: identity frames parsed while a
    codec job is pending queue behind it, the others are taken at once."""

    def submit(self, fn) -> None:
        def late(index: int) -> None:
            time.sleep(0.002)
            fn(index)

        super().submit(late)


def _with_flags(frame: bytes, flags: int, reserved: bytes = bytes(3)) -> bytes:
    """``frame`` with its flags and reserved header bytes rewritten."""
    out = bytearray(frame)
    out[4] = flags
    out[5:8] = reserved
    return bytes(out)


def _codec_frame(block: bytes, level: str) -> bytes:
    frame = bytes(encode_block(block, LEVELS.codec(LEVELS.index_of(level))).frame)
    assert decode_header(frame).codec_id != 0  # really a codec frame
    return frame


#: Inbound frame kinds: (identity?, frame of a block).  The stored
#: fallback takes incompressible blocks, every other kind compressible ones.
FRAME_KINDS = {
    "id0": (True, _no_frame),
    "stored": (True, lambda b: bytes(encode_block(b, LEVELS.codec(1)).frame)),
    "id0-flags2": (True, lambda b: _with_flags(_no_frame(b), 2)),
    "id0-flagsff-reserved": (
        True,
        lambda b: _with_flags(_no_frame(b), 0xFF, b"\x01\x80\xff"),
    ),
    "light": (False, lambda b: _codec_frame(b, "LIGHT")),
    "medium": (False, lambda b: _codec_frame(b, "MEDIUM")),
    "heavy": (False, lambda b: _codec_frame(b, "HEAVY")),
    "light-flags2": (False, lambda b: _with_flags(_codec_frame(b, "LIGHT"), 2)),
}

#: (hello mode, hello level) of each serve mode.
SERVE_MODES = {
    "echo-NO": (MODE_ECHO, "NO"),
    "echo-LIGHT": (MODE_ECHO, "LIGHT"),
    "echo-adaptive": (MODE_ECHO, "adaptive"),
    "sink": (MODE_SINK, "NO"),
}


class TestIdentityPaths:
    @pytest.mark.parametrize("serve_mode", list(SERVE_MODES))
    @pytest.mark.parametrize("kind", list(FRAME_KINDS))
    def test_every_frame_kind_in_every_mode(self, wire, kind, serve_mode):
        """Each kind alternates with a partner frame that takes the other
        path (a LIGHT frame for identity kinds, a NO frame for codec
        kinds) through a pool whose jobs start late, so identity frames
        are taken both in order and queued behind a pending job.  The
        trailer CRC and the decoded echo always equal the input; an echo
        at NO or LIGHT is exactly ``encode_block`` of each block."""
        sock, peer = wire
        identity, make_frame = FRAME_KINDS[kind]
        rng = random.Random(f"{kind}/{serve_mode}")
        blocks, frames = [], []
        for i in range(12):
            if i % 2 == 0:
                block = (
                    rng.randbytes(BLOCK)
                    if kind == "stored"
                    else bytes([i, rng.randrange(256)]) * (BLOCK // 2)
                )
                frame = make_frame(block)
            else:
                block = bytes([i % 251, 7]) * (BLOCK // 2)
                frame = _light_frame(block) if identity else _no_frame(block)
            assert (decode_header(frame).codec_id == 0) == (identity == (i % 2 == 0))
            blocks.append(block)
            frames.append(frame)
        mode, level = SERVE_MODES[serve_mode]
        pool = DelayingPool(2, name="test-identity-paths")
        try:
            flow = _echo_flow(sock, pool)
            wire_out = _drive(flow, peer, frames, level=level, mode=mode)
            controls, echoed = _split(wire_out)
        finally:
            pool.close()
        assert flow.ok, flow.failure
        trailer = controls[-1]
        assert trailer["crc32"] == zlib.crc32(b"".join(blocks))
        assert trailer["app_bytes"] == len(blocks) * BLOCK
        if mode == MODE_SINK:
            assert echoed == [] and trailer["blocks_out"] == 0
            return
        assert [decode_block(frame) for frame in echoed] == blocks
        if level in ("NO", "LIGHT"):
            codec = LEVELS.codec(LEVELS.index_of(level))
            assert echoed == [bytes(encode_block(b, codec).frame) for b in blocks]


class TestHelloBlockSize:
    @pytest.mark.parametrize("level", ["NO", "LIGHT"])
    def test_block_size_changes_no_echoed_byte(self, codec_pool, level):
        """The hello's block_size is checked and otherwise unused: every
        inbound frame echoes as one frame, so an absent, a 4 KiB and a
        1 MiB block_size give the same echoed bytes and trailer.  Only
        the trailer's ``wire_bytes_in`` differs, by the hello's length."""
        sizes = (16 * 1024, 8 * 1024, 3000, 20 * 1024, 32 * 1024)
        blocks = [bytes([i + 1]) * size for i, size in enumerate(sizes)]
        frames = [
            _no_frame(b) if i % 2 else _light_frame(b) for i, b in enumerate(blocks)
        ]
        uploaded = sum(len(frame) for frame in frames)
        echoes = []
        for block_size in (None, 4 * 1024, 1 << 20):
            sock, peer = socket.socketpair()
            sock.setblocking(False)
            try:
                flow = _echo_flow(sock, codec_pool)
                wire = _drive(flow, peer, frames, level=level, block_size=block_size)
            finally:
                sock.close()
                peer.close()
            assert flow.ok, flow.failure
            controls, echoed = _split(wire)
            hello = _hello(level, block_size)
            assert controls[-1].pop("wire_bytes_in") == len(hello) + uploaded
            echoes.append((echoed, controls))
        assert echoes[0] == echoes[1] == echoes[2]
        echoed, controls = echoes[0]
        assert [decode_block(frame) for frame in echoed] == blocks
        assert controls[-1]["crc32"] == zlib.crc32(b"".join(blocks))


# -- one sendmsg per write turn -----------------------------------------


def _queue_all(flow: Flow, bufs) -> list:
    """Queue ``bufs``; the end offset of each in the sent byte stream."""
    for buf in bufs:
        flow._queue(buf)
    return list(itertools.accumulate(memoryview(b).nbytes for b in bufs))


def _assert_released_on_last_byte(flow: Flow, ends) -> None:
    """The queue holds exactly the buffers whose last byte is unsent."""
    assert len(flow._out) == sum(end > flow.bytes_out for end in ends)


@pytest.fixture()
def narrow_wire():
    """Like ``wire``, but the flow side's send buffer holds about 8 KB."""
    a, b = socket.socketpair()
    a.setblocking(False)
    a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    b.settimeout(10.0)
    yield a, b
    a.close()
    b.close()


class TestHandleWrite:
    QUANTUM = 5000

    def test_quantum_short_sends_and_release_on_last_byte(self, narrow_wire):
        sock, peer = narrow_wire
        flow = _echo_flow(sock, DecodeNowHoldCompress())
        rng = random.Random(5)
        raw = [rng.randbytes(n) for n in (3000, 20000, 1, 7000, 12345, 500, 4999)]
        bufs = [raw[0], bytearray(raw[1]), memoryview(raw[2])] + raw[3:]
        ends = _queue_all(flow, bufs)
        got = bytearray()
        full_turns = short_turns = 0
        while flow.wants_write:
            queued = flow._out_bytes
            sent = flow.handle_write(self.QUANTUM)
            assert 0 <= sent <= self.QUANTUM
            full_turns += sent == min(self.QUANTUM, queued)
            short_turns += 0 < sent < min(self.QUANTUM, queued)
            _assert_released_on_last_byte(flow, ends)
            if sent == 0:  # the send buffer is full: let the peer read
                while len(got) < flow.bytes_out:
                    got += peer.recv(1 << 16)
        while len(got) < flow.bytes_out:
            got += peer.recv(1 << 16)
        assert bytes(got) == b"".join(raw)
        assert flow.bytes_out == ends[-1] and flow._out_bytes == 0
        assert full_turns and short_turns  # both limits were reached
        assert not flow._out

    def test_more_buffers_than_iov_max_go_out_in_order(self, wire):
        sock, peer = wire
        flow = _echo_flow(sock, DecodeNowHoldCompress())
        bufs = [i.to_bytes(2, "big") for i in range(IOV_MAX + 7)]
        ends = _queue_all(flow, bufs)
        assert flow.handle_write(1 << 20) == 2 * IOV_MAX  # one sendmsg
        _assert_released_on_last_byte(flow, ends)
        assert flow.handle_write(1 << 20) == 2 * 7
        got = bytearray()
        while len(got) < ends[-1]:
            got += peer.recv(1 << 16)
        assert bytes(got) == b"".join(bufs)
        assert not flow._out

    def test_fail_drops_every_unsent_buffer(self, narrow_wire):
        sock, peer = narrow_wire
        flow = _echo_flow(sock, DecodeNowHoldCompress())
        bufs = [bytes([i]) * 6000 for i in range(3)]
        ends = _queue_all(flow, bufs)
        sent = flow.handle_write(1 << 20)
        assert ends[0] <= sent < ends[1]  # the second buffer went out in part
        _assert_released_on_last_byte(flow, ends)
        flow.fail("test")
        flow.fail("test again")
        assert not flow._out and flow._out_bytes == 0
        assert not flow.wants_write and flow.handle_write() == 0
