"""Tests for real socket transfer and file compression utilities."""

from __future__ import annotations

import os

import pytest

from repro.data import Compressibility, RepeatingSource, SyntheticCorpus
from repro.io import compress_file, decompress_file, run_socket_transfer
from repro.io.sockets import SocketSource, VectoredSocketWriter


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(file_size=64 * 1024, seed=9)


class TestSocketTransfer:
    def test_adaptive_roundtrip(self, corpus):
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 1_500_000, corpus)
        res = run_socket_transfer(src, block_size=32 * 1024, epoch_seconds=0.1)
        assert res.app_bytes == 1_500_000
        assert res.receiver_bytes == 1_500_000
        assert res.wall_seconds > 0

    def test_static_levels(self, corpus):
        for level in range(4):
            src = RepeatingSource.from_corpus(Compressibility.MODERATE, 300_000, corpus)
            res = run_socket_transfer(src, static_level=level, block_size=32 * 1024)
            assert res.receiver_bytes == 300_000
            if level > 0:
                assert res.compression_ratio < 0.7

    def test_throttled_compressible_beats_wire_rate(self, corpus):
        """With a slow 'link', compression lifts the application rate
        above the wire rate — the paper's core effect, on real bytes."""
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 3_000_000, corpus)
        res = run_socket_transfer(
            src, rate_limit=3e6, block_size=32 * 1024, epoch_seconds=0.1
        )
        assert res.app_rate > 1.8 * 3e6

    def test_adaptive_epochs_recorded(self, corpus):
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 2_000_000, corpus)
        res = run_socket_transfer(
            src, rate_limit=2e6, block_size=32 * 1024, epoch_seconds=0.02
        )
        assert len(res.epochs) >= 1
        assert all(e.app_rate >= 0 for e in res.epochs)

    def test_incompressible_falls_back_gracefully(self, corpus):
        src = RepeatingSource.from_corpus(Compressibility.LOW, 1_000_000, corpus)
        res = run_socket_transfer(src, static_level=1, block_size=32 * 1024)
        # Stored-fallback caps the expansion at the header overhead.
        assert res.compression_ratio < 1.01


class TestParallelReceivePath:
    def test_decode_workers_roundtrip(self, corpus):
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 1_000_000, corpus)
        res = run_socket_transfer(
            src, block_size=32 * 1024, epoch_seconds=0.1, decode_workers=3
        )
        assert res.app_bytes == 1_000_000
        assert res.receiver_bytes == 1_000_000

    def test_unvectored_sender_roundtrip(self, corpus):
        """A rate limit interposes a byte-stream wrapper, so the sender
        writes through makefile('wb'); that path stays working."""
        src = RepeatingSource.from_corpus(Compressibility.MODERATE, 500_000, corpus)
        res = run_socket_transfer(
            src, static_level=2, block_size=32 * 1024, rate_limit=1e9
        )
        assert res.receiver_bytes == 500_000

    def test_decode_workers_with_encode_workers(self, corpus):
        """Both pipelines at once: parallel encode into parallel decode."""
        src = RepeatingSource.from_corpus(Compressibility.HIGH, 800_000, corpus)
        res = run_socket_transfer(
            src, static_level=2, block_size=32 * 1024, workers=2, decode_workers=2
        )
        assert res.receiver_bytes == 800_000


class _ChokedSocket:
    """sendmsg stub that accepts at most ``cap`` bytes per call."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.sent = bytearray()
        self.calls = 0

    def sendmsg(self, buffers) -> int:
        self.calls += 1
        budget = self.cap
        for buf in buffers:
            take = min(budget, buf.nbytes)
            self.sent += buf[:take]
            budget -= take
            if budget == 0:
                break
        return self.cap - budget

    def sendall(self, data) -> None:
        self.sent += data


class TestVectoredSocketWriter:
    def test_partial_sends_resume_mid_part(self):
        """Short sendmsg returns (cap smaller than any one part) must
        resume from the first unsent byte, never duplicate or drop."""
        sock = _ChokedSocket(cap=7)
        writer = VectoredSocketWriter(sock)
        parts = (b"header--", b"payload bytes that span several sends")
        n = writer.writev(parts)
        assert n == sum(len(p) for p in parts)
        assert bytes(sock.sent) == b"".join(parts)
        assert sock.calls > 1
        assert writer.bytes_sent == n

    def test_scalar_write_fallback(self):
        sock = _ChokedSocket(cap=1024)
        writer = VectoredSocketWriter(sock)
        assert writer.write(b"plain") == 5
        assert bytes(sock.sent) == b"plain"
        writer.flush()
        writer.close()  # no-ops; the socket stays usable


class _SendmsgCounter:
    """A real socket whose ``sendmsg`` calls record their buffer counts."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.buffers_per_call: list = []

    def sendmsg(self, buffers) -> int:
        self.buffers_per_call.append(len(buffers))
        return self._sock.sendmsg(buffers)


class TestVectoredSocketWriterIovMax:
    def test_one_write_of_one_byte_blocks_splits_at_iov_max(self):
        """64 KiB at ``block_size=1`` is 65 536 frames, 131 072 buffers in
        one ``writev``: each ``sendmsg`` carries at most IOV_MAX of
        them, and the peer reads back the exact serial stream."""
        import io
        import socket as socket_module
        import threading

        from repro.core import StaticBlockWriter
        from repro.io.sockets import IOV_MAX

        payload = bytes(range(256)) * 256  # 64 KiB
        expected = io.BytesIO()
        with StaticBlockWriter(expected, 0, block_size=1) as reference:
            reference.write(payload)

        left, right = socket_module.socketpair()
        received = bytearray()

        def drain() -> None:
            while True:
                chunk = right.recv(1 << 16)
                if not chunk:
                    return
                received.extend(chunk)

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            sock = _SendmsgCounter(left)
            sink = VectoredSocketWriter(sock)
            writev_sizes = []
            writev = sink.writev

            def counting_writev(parts):
                parts = list(parts)
                writev_sizes.append(len(parts))
                return writev(parts)

            sink.writev = counting_writev
            writer = StaticBlockWriter(sink, 0, block_size=1)
            writer.write(payload)
            assert writev_sizes == [2 * len(payload)]
            writer.close()
            left.shutdown(socket_module.SHUT_WR)
            reader.join(timeout=30)
            assert not reader.is_alive()
        finally:
            left.close()
            right.close()
        assert max(sock.buffers_per_call) <= IOV_MAX
        assert len(sock.buffers_per_call) >= 2 * len(payload) // IOV_MAX
        assert bytes(received) == expected.getvalue()
        assert sink.bytes_sent == len(expected.getvalue())


class TestSocketSource:
    def test_readinto_and_drain(self):
        import socket as socket_module

        left, right = socket_module.socketpair()
        try:
            left.sendall(b"abcdefgh")
            source = SocketSource(right)
            buf = bytearray(5)
            got = source.readinto(buf)
            assert buf[:got] == b"abcdefgh"[:got]
            left.close()
            rest = bytearray()
            while n := source.readinto(buf):
                rest += buf[:n]
            assert b"abcdefgh"[:got] + rest == b"abcdefgh"
        finally:
            right.close()


class TestFileCompression:
    def test_roundtrip_adaptive(self, tmp_path, corpus):
        src_path = tmp_path / "input.bin"
        data = corpus.payload(Compressibility.MODERATE) * 4
        src_path.write_bytes(data)
        packed = tmp_path / "packed.abc"
        restored = tmp_path / "restored.bin"

        result = compress_file(str(src_path), str(packed), block_size=16 * 1024)
        assert result.input_bytes == len(data)
        assert result.output_bytes == os.path.getsize(packed)

        n = decompress_file(str(packed), str(restored))
        assert n == len(data)
        assert restored.read_bytes() == data

    def test_static_heavy_smaller_than_light(self, tmp_path, corpus):
        data = corpus.payload(Compressibility.MODERATE) * 4
        src_path = tmp_path / "input.bin"
        src_path.write_bytes(data)
        sizes = {}
        for level in (1, 3):
            out = tmp_path / f"out{level}.abc"
            res = compress_file(str(src_path), str(out), static_level=level)
            sizes[level] = res.output_bytes
        assert sizes[3] < sizes[1]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_decompress_workers_identical(self, tmp_path, corpus, workers):
        data = corpus.payload(Compressibility.HIGH) * 4
        src_path = tmp_path / "input.bin"
        src_path.write_bytes(data)
        packed = tmp_path / "packed.abc"
        restored = tmp_path / f"restored{workers}.bin"
        compress_file(str(src_path), str(packed), block_size=16 * 1024)
        n = decompress_file(str(packed), str(restored), workers=workers)
        assert n == len(data)
        assert restored.read_bytes() == data

    def test_empty_file(self, tmp_path):
        src_path = tmp_path / "empty.bin"
        src_path.write_bytes(b"")
        packed = tmp_path / "empty.abc"
        restored = tmp_path / "restored.bin"
        result = compress_file(str(src_path), str(packed))
        assert result.input_bytes == 0
        assert decompress_file(str(packed), str(restored)) == 0
        assert restored.read_bytes() == b""
