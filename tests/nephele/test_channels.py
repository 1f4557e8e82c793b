"""Tests for channel implementations."""

from __future__ import annotations

import threading

import pytest

from repro.nephele import (
    ChannelClosedError,
    ChannelSpec,
    ChannelType,
    CompressionMode,
    FileChannel,
    InMemoryChannel,
    NetworkChannel,
    build_channel,
)


class TestChannelSpec:
    def test_in_memory_cannot_compress(self):
        with pytest.raises(ValueError):
            ChannelSpec(ChannelType.IN_MEMORY, compression=CompressionMode.STATIC)

    def test_defaults(self):
        spec = ChannelSpec()
        assert spec.channel_type is ChannelType.IN_MEMORY
        assert spec.compression is CompressionMode.OFF

    def test_build_channel_dispatch(self):
        assert isinstance(build_channel(ChannelSpec(ChannelType.IN_MEMORY)), InMemoryChannel)
        file_ch = build_channel(ChannelSpec(ChannelType.FILE))
        assert isinstance(file_ch, FileChannel)
        file_ch.close_write()
        file_ch.dispose()
        net_ch = build_channel(ChannelSpec(ChannelType.NETWORK))
        assert isinstance(net_ch, NetworkChannel)
        net_ch.close_write()
        net_ch.dispose()


class TestInMemoryChannel:
    def test_roundtrip(self):
        ch = InMemoryChannel()
        ch.write_record(b"one")
        ch.write_record(b"two")
        ch.close_write()
        assert ch.read_record() == b"one"
        assert ch.read_record() == b"two"
        assert ch.read_record() is None
        assert ch.read_record() is None  # EOF sticky

    def test_write_after_close_rejected(self):
        ch = InMemoryChannel()
        ch.close_write()
        with pytest.raises(ChannelClosedError):
            ch.write_record(b"late")

    def test_iteration(self):
        ch = InMemoryChannel()
        for i in range(5):
            ch.write_record(bytes([i]))
        ch.close_write()
        assert list(ch) == [bytes([i]) for i in range(5)]

    def test_bounded_backpressure(self):
        spec = ChannelSpec(ChannelType.IN_MEMORY, buffer_records=2)
        ch = InMemoryChannel(spec)
        ch.write_record(b"a")
        ch.write_record(b"b")
        # Third write would block; do it from a thread and unblock by reading.
        done = threading.Event()

        def writer():
            ch.write_record(b"c")
            done.set()

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        assert not done.wait(0.1)  # blocked on full buffer
        assert ch.read_record() == b"a"
        assert done.wait(2.0)


class TestFileChannel:
    @pytest.mark.parametrize(
        "compression,level",
        [
            (CompressionMode.OFF, 0),
            (CompressionMode.STATIC, 2),
            (CompressionMode.ADAPTIVE, 0),
        ],
        ids=["off", "static", "adaptive"],
    )
    def test_roundtrip(self, compression, level, tmp_path):
        spec = ChannelSpec(
            ChannelType.FILE,
            compression=compression,
            static_level=level,
            block_size=512,
        )
        ch = FileChannel(spec, path=str(tmp_path / "chan.dat"))
        records = [bytes([i % 251]) * (i * 7 % 300) for i in range(50)]
        for r in records:
            ch.write_record(r)
        ch.close_write()
        assert list(ch) == records
        ch.dispose()

    def test_read_before_close_rejected(self):
        ch = FileChannel()
        ch.write_record(b"x")
        with pytest.raises(RuntimeError, match="closed for writing"):
            ch.read_record()
        ch.close_write()
        ch.dispose()

    def test_static_compression_shrinks_file(self, tmp_path):
        import os

        raw_path = tmp_path / "raw.dat"
        z_path = tmp_path / "z.dat"
        payload = b"\x00" * 1000
        for path, mode, lvl in ((raw_path, CompressionMode.OFF, 0), (z_path, CompressionMode.STATIC, 1)):
            spec = ChannelSpec(ChannelType.FILE, compression=mode, static_level=lvl, block_size=2048)
            ch = FileChannel(spec, path=str(path))
            for _ in range(50):
                ch.write_record(payload)
            ch.close_write()
        assert os.path.getsize(z_path) < os.path.getsize(raw_path) / 5

    def test_dispose_removes_temp_file(self):
        import os

        ch = FileChannel()
        path = ch.path
        ch.write_record(b"x")
        ch.close_write()
        assert os.path.exists(path)
        ch.dispose()
        assert not os.path.exists(path)

    def test_block_writer_stats_exposed(self):
        ch = FileChannel(ChannelSpec(ChannelType.FILE, compression=CompressionMode.STATIC, static_level=1))
        ch.write_record(b"stat " * 100)
        ch.close_write()
        assert ch.block_writer.bytes_in > 0
        assert ch.block_writer.bytes_out > 0
        ch.dispose()


class TestNetworkChannel:
    def test_roundtrip_threaded(self):
        spec = ChannelSpec(
            ChannelType.NETWORK, compression=CompressionMode.ADAPTIVE, block_size=1024
        )
        ch = NetworkChannel(spec)
        records = [b"record-%d " % i * 20 for i in range(200)]
        received = []

        def reader():
            received.extend(ch)

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        for r in records:
            ch.write_record(r)
        ch.close_write()
        t.join(timeout=10)
        assert not t.is_alive()
        assert received == records

    def test_write_after_close_rejected(self):
        ch = NetworkChannel()
        ch.close_write()
        with pytest.raises(ChannelClosedError):
            ch.write_record(b"late")
        ch.dispose()

    def test_eof_after_close(self):
        ch = NetworkChannel()
        ch.write_record(b"only")
        ch.close_write()
        assert ch.read_record() == b"only"
        assert ch.read_record() is None
