"""Tests for adaptive and static block-stream writers."""

from __future__ import annotations

import io
import os

import pytest

from repro.codecs import MAX_BLOCK_LEN, BlockReader
from repro.core import AdaptiveBlockWriter, StaticBlockWriter, default_level_table

from ..conftest import ThreadBaseline


class FakeClock:
    """Deterministic, manually advanced clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestAdaptiveBlockWriter:
    def test_roundtrip_small_stream(self):
        buf = io.BytesIO()
        clock = FakeClock()
        writer = AdaptiveBlockWriter(buf, block_size=256, clock=clock)
        payload = b"adaptive stream payload " * 200
        writer.write(payload)
        writer.close()

        buf.seek(0)
        assert b"".join(BlockReader(buf)) == payload

    def test_roundtrip_with_level_changes(self):
        buf = io.BytesIO()
        clock = FakeClock()
        writer = AdaptiveBlockWriter(
            buf, block_size=128, epoch_seconds=1.0, clock=clock
        )
        payload = bytes(range(256)) * 64
        # Write in chunks, advancing time so several epochs close and
        # the level actually moves mid-stream.
        for i in range(0, len(payload), 200):
            writer.write(payload[i : i + 200])
            clock.advance(0.6)
        writer.close()
        levels_seen = {r.level_after for r in writer.controller.trace}
        assert len(levels_seen) > 1  # the level did change mid-stream

        buf.seek(0)
        assert b"".join(BlockReader(buf)) == payload

    def test_partial_block_flushed_on_close(self):
        buf = io.BytesIO()
        writer = AdaptiveBlockWriter(buf, block_size=1000, clock=FakeClock())
        writer.write(b"tiny")
        writer.close()
        buf.seek(0)
        assert b"".join(BlockReader(buf)) == b"tiny"

    def test_write_after_close_rejected(self):
        writer = AdaptiveBlockWriter(io.BytesIO(), clock=FakeClock())
        writer.close()
        with pytest.raises(ValueError):
            writer.write(b"x")

    def test_context_manager(self):
        buf = io.BytesIO()
        with AdaptiveBlockWriter(buf, block_size=64, clock=FakeClock()) as w:
            w.write(b"ctx " * 50)
        buf.seek(0)
        assert b"".join(BlockReader(buf)) == b"ctx " * 50

    def test_statistics(self):
        buf = io.BytesIO()
        writer = AdaptiveBlockWriter(buf, block_size=100, clock=FakeClock())
        writer.write(b"\x00" * 250)
        assert writer.bytes_in == 250
        assert writer.blocks_written == 2  # 50 bytes still buffered
        writer.close()
        assert writer.blocks_written == 3
        assert writer.bytes_out == len(buf.getvalue())

    def test_initial_level_is_no_compression(self):
        writer = AdaptiveBlockWriter(io.BytesIO(), clock=FakeClock())
        assert writer.current_level == 0
        assert writer.current_level_name == "NO"

    def test_block_size_validation(self):
        """Both writers take exactly the block sizes a reader accepts:
        out-of-range ones fail before any encoder starts, and the
        largest one round-trips."""
        writers = [
            lambda sink, **kw: AdaptiveBlockWriter(sink, clock=FakeClock(), **kw),
            lambda sink, **kw: StaticBlockWriter(sink, 1, **kw),
        ]
        threads = ThreadBaseline()
        for make in writers:
            for block_size in (0, -1, MAX_BLOCK_LEN + 1):
                with pytest.raises(ValueError, match="block_size"):
                    make(io.BytesIO(), block_size=block_size, workers=2)
            assert threads.new() == []
            payload = os.urandom(MAX_BLOCK_LEN)
            buf = io.BytesIO()
            with make(buf, block_size=MAX_BLOCK_LEN) as writer:
                writer.write(payload)
            assert writer.blocks_written == 1
            buf.seek(0)
            assert b"".join(BlockReader(buf)) == payload

    def test_epoch_decisions_follow_clock(self):
        buf = io.BytesIO()
        clock = FakeClock()
        writer = AdaptiveBlockWriter(
            buf, block_size=10, epoch_seconds=2.0, clock=clock
        )
        writer.write(b"x" * 10)  # one block, t=0: no epoch yet
        assert len(writer.controller.trace) == 0
        clock.advance(2.5)
        writer.write(b"y" * 10)  # block at t=2.5 closes the epoch
        assert len(writer.controller.trace) == 1


class TestStaticBlockWriter:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_roundtrip_each_level(self, level):
        buf = io.BytesIO()
        payload = b"static level stream " * 300
        with StaticBlockWriter(buf, level, block_size=512) as w:
            w.write(payload)
        buf.seek(0)
        assert b"".join(BlockReader(buf)) == payload

    def test_level_never_changes(self):
        buf = io.BytesIO()
        table = default_level_table()
        writer = StaticBlockWriter(buf, 2, table, block_size=64)
        writer.write(b"m" * 1000)
        writer.close()
        buf.seek(0)
        from repro.codecs.block import decode_header, HEADER_SIZE

        raw = buf.getvalue()
        pos = 0
        codec_ids = set()
        while pos < len(raw):
            header = decode_header(raw[pos : pos + HEADER_SIZE])
            codec_ids.add(header.codec_id)
            pos += HEADER_SIZE + header.compressed_len
        assert codec_ids == {table.codec(2).codec_id}

    def test_level_validation(self):
        with pytest.raises(ValueError):
            StaticBlockWriter(io.BytesIO(), 9)

    def test_write_after_close_rejected(self):
        w = StaticBlockWriter(io.BytesIO(), 0)
        w.close()
        with pytest.raises(ValueError):
            w.write(b"x")

    def test_compression_actually_applied(self):
        compressible = b"\x00" * 10_000
        raw_buf, z_buf = io.BytesIO(), io.BytesIO()
        with StaticBlockWriter(raw_buf, 0, block_size=1024) as w:
            w.write(compressible)
        with StaticBlockWriter(z_buf, 1, block_size=1024) as w:
            w.write(compressible)
        assert len(z_buf.getvalue()) < len(raw_buf.getvalue()) / 5


class CountingVectoredSink:
    """A vectored sink that records the buffer count of every ``writev``."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.writev_buffers: list = []

    def write(self, data) -> int:
        raise AssertionError("a vectored sink takes frames through writev")

    def writev(self, parts) -> int:
        parts = list(parts)
        self.writev_buffers.append(len(parts))
        for part in parts:
            self.data += part
        return sum(memoryview(part).nbytes for part in parts)


class TestVectoredSends:
    """The serial encoder puts every frame one ``write`` carves on a
    vectored sink in one ``writev``, before ``write`` returns."""

    @pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
    def test_one_writev_per_write_call(self, adaptive):
        sink = CountingVectoredSink()
        if adaptive:
            writer = AdaptiveBlockWriter(sink, block_size=16 * 1024, clock=FakeClock())
        else:
            writer = StaticBlockWriter(sink, 0, block_size=16 * 1024)
        payload = bytes(range(256)) * 1024  # 256 KiB: 16 blocks
        writer.write(payload)
        assert sink.writev_buffers == [32]  # header and payload per frame
        assert writer.blocks_written == 16
        assert writer.bytes_out == len(sink.data)
        assert b"".join(BlockReader(io.BytesIO(bytes(sink.data)))) == payload
        writer.write(b"tail")  # no full block: nothing to send
        assert sink.writev_buffers == [32]
        writer.close()
        assert sink.writev_buffers == [32, 2]
        assert b"".join(BlockReader(io.BytesIO(bytes(sink.data)))) == payload + b"tail"

    def test_abort_drops_nothing_already_sent(self):
        sink = CountingVectoredSink()
        writer = StaticBlockWriter(sink, 1, block_size=1024)
        writer.write(b"z" * 4096 + b"partial")
        sent = bytes(sink.data)
        writer.abort()
        assert bytes(sink.data) == sent
        assert b"".join(BlockReader(io.BytesIO(sent))) == b"z" * 4096
