"""The serve client's reply reader: frames parsed in place, bad bytes refused.

The reader ``recv_into``s one reused buffer and decodes each echo frame
from a view of it.  Anything malformed in the reply stream — a codec
error included — surfaces as :class:`ServeProtocolError`, the one error
a load loop counts as a failed flow.
"""

from __future__ import annotations

import zlib

import pytest

from repro.codecs.block import (
    FORMAT_VERSION,
    HEADER,
    HEADER_SIZE,
    MAGIC,
    MAX_BLOCK_LEN,
    encode_block,
)
from repro.codecs.errors import CodecError
from repro.core.levels import default_level_table
from repro.serve.client import _CHUNK, ServeClient, ServeProtocolError, _SocketBuf
from repro.serve.protocol import encode_control

LEVELS = default_level_table()
NO = LEVELS.codec(LEVELS.index_of("NO"))
LIGHT = LEVELS.codec(LEVELS.index_of("LIGHT"))


class FakeSocket:
    """Replays ``stream`` at most ``step`` bytes per receive call."""

    def __init__(self, stream: bytes, step: int = 1 << 20) -> None:
        self._stream = stream
        self._pos = 0
        self._step = step
        self.calls = 0

    def recv_into(self, buf) -> int:
        self.calls += 1
        with memoryview(buf) as view:
            n = min(self._step, view.nbytes, len(self._stream) - self._pos)
            view[:n] = self._stream[self._pos : self._pos + n]
        self._pos += n
        return n

    def recv(self, n: int) -> bytes:
        buf = bytearray(n)
        return bytes(buf[: self.recv_into(buf)])


def _frame(block: bytes, codec=NO) -> bytes:
    return bytes(encode_block(block, codec).frame)


def _read_echo(stream: bytes, step: int = 1 << 20):
    """``ServeClient._read_echo`` over ``stream``, collecting the plaintext."""
    client = ServeClient("127.0.0.1", 0)
    return client._read_echo(_SocketBuf(FakeSocket(stream, step)), True)


TRAILER = encode_control({"ok": True, "crc32": 0})


class TestInPlaceReads:
    @pytest.mark.parametrize("step", [1, 7, 1 << 20], ids=["1B", "7B", "whole"])
    def test_frames_and_controls_in_any_receive_size(self, step):
        blocks = [bytes([i]) * 1000 + b"tail" * i for i in range(6)]
        ctl = encode_control({"ctl": "rebalance", "level": None, "weight": 1.0})
        stream = b"".join(
            _frame(block, LIGHT if i % 2 else NO) + (ctl if i == 2 else b"")
            for i, block in enumerate(blocks)
        )
        stream += encode_control({"ok": True, "app_bytes": 1})
        data, crc, trailer, controls = _read_echo(stream, step)
        assert data == b"".join(blocks)
        assert crc == zlib.crc32(data)
        assert trailer == {"ok": True, "app_bytes": 1}
        assert controls == [{"ctl": "rebalance", "level": None, "weight": 1.0}]

    def test_handshake_ack_one_byte_per_receive(self):
        ack = encode_control({"ok": True, "flow_id": 7})
        reader = _SocketBuf(FakeSocket(ack + TRAILER, step=1))
        assert reader.read_control("admission ack") == {"ok": True, "flow_id": 7}
        assert reader.read_control("trailer") == {"ok": True, "crc32": 0}
        assert reader.total_read == len(ack + TRAILER)

    def test_frame_larger_than_the_buffer(self):
        """A frame past the reader's buffer grows it, once."""
        block = bytes(range(256)) * ((_CHUNK + 4096) // 256)
        stream = _frame(b"small") + _frame(block) + _frame(b"after") + TRAILER
        data, crc, _, _ = _read_echo(stream, step=64 * 1024)
        assert data == b"small" + block + b"after"
        assert crc == zlib.crc32(data)

    def test_one_receive_serves_many_frames(self):
        blocks = [bytes([i]) * 4096 for i in range(32)]
        sock = FakeSocket(b"".join(_frame(b) for b in blocks) + TRAILER)
        reader = _SocketBuf(sock)
        data, _, _, _ = ServeClient("127.0.0.1", 0)._read_echo(reader, True)
        assert data == b"".join(blocks)
        assert sock.calls <= 3  # the stream fits in the reader's buffer


def _corrupt(frame: bytes, offset: int, value: int) -> bytes:
    damaged = bytearray(frame)
    damaged[offset] = value
    return bytes(damaged)


GOOD = _frame(b"x" * 16 * 1024)


class TestMalformedReplies:
    @pytest.mark.parametrize(
        "bad, match",
        [
            (b"XY" + GOOD[2:], "unexpected frame prefix"),
            (_corrupt(GOOD, 2, FORMAT_VERSION + 1), "unsupported format version"),
            (
                HEADER.pack(MAGIC, FORMAT_VERSION, 0, 0, 16, MAX_BLOCK_LEN + 1, 0),
                "compressed_len",
            ),
            (_corrupt(GOOD, HEADER_SIZE + 5, ord("y")), "CRC mismatch"),
            (
                HEADER.pack(MAGIC, FORMAT_VERSION, 0, 0, 17, 16, zlib.crc32(b"z" * 16))
                + b"z" * 16,
                "header claim",
            ),
        ],
        ids=["bad-magic", "bad-version", "oversized", "crc-mismatch", "len-mismatch"],
    )
    @pytest.mark.parametrize("step", [1, 1 << 20], ids=["1B", "whole"])
    def test_codec_errors_become_protocol_errors(self, bad, match, step):
        with pytest.raises(ServeProtocolError, match=match) as exc_info:
            _read_echo(GOOD + bad + TRAILER, step)
        cause = exc_info.value.__cause__
        assert cause is None or isinstance(cause, CodecError)

    def test_eof_mid_frame(self):
        with pytest.raises(ServeProtocolError, match="mid-block payload"):
            _read_echo(GOOD[:-1])

    def test_eof_before_trailer(self):
        with pytest.raises(ServeProtocolError, match="before trailer"):
            _read_echo(GOOD)
