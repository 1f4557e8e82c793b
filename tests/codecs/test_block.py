"""Tests for the self-contained block framing layer."""

from __future__ import annotations

import io
import random
import sys
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import (
    DEFAULT_BLOCK_SIZE,
    HEADER_SIZE,
    MAX_BLOCK_LEN,
    BlockReader,
    BlockWriter,
    CorruptBlockError,
    LightZlibCodec,
    LzmaCodec,
    NullCodec,
    OversizedBlockError,
    RleCodec,
    TruncatedStreamError,
    UnknownCodecError,
    decode_block,
    decode_header,
    decode_payload,
    encode_block,
)
from repro.codecs import block
from repro.codecs.block import FLAG_STORED_FALLBACK, MAGIC, crc32_combine


class TestEncodeDecode:
    def test_roundtrip(self, codec):
        data = b"block framing roundtrip " * 50
        block = encode_block(data, codec)
        assert decode_block(block.frame) == data

    def test_empty_payload(self, codec):
        block = encode_block(b"", codec)
        assert decode_block(block.frame) == b""

    def test_header_fields(self):
        data = b"x" * 1000
        codec = LightZlibCodec()
        block = encode_block(data, codec)
        assert block.header.codec_id == codec.codec_id
        assert block.header.uncompressed_len == 1000
        assert block.header.compressed_len == len(block.frame) - HEADER_SIZE

    def test_ratio(self):
        block = encode_block(b"\x00" * 1000, LightZlibCodec())
        assert block.ratio < 0.1
        raw = encode_block(b"\x00" * 1000, NullCodec())
        assert raw.ratio == 1.0

    def test_default_block_size_is_papers_128kb(self):
        assert DEFAULT_BLOCK_SIZE == 128 * 1024


class TestStoredFallback:
    def test_incompressible_block_stored_raw(self):
        import os

        data = os.urandom(4096)
        block = encode_block(data, LightZlibCodec())
        assert block.header.stored_fallback
        assert block.header.codec_id == 0
        # Cost is bounded by the header.
        assert block.frame_len == HEADER_SIZE + len(data)
        assert decode_block(block.frame) == data

    def test_null_codec_never_flagged(self):
        block = encode_block(b"abc", NullCodec())
        assert not block.header.stored_fallback


class TestCorruption:
    def _frame(self, data=b"corruption test payload " * 20):
        return bytearray(encode_block(data, LightZlibCodec()).frame)

    def test_bad_magic(self):
        frame = self._frame()
        frame[0] ^= 0xFF
        with pytest.raises(CorruptBlockError):
            decode_block(bytes(frame))

    def test_bad_version(self):
        frame = self._frame()
        frame[2] = 99
        with pytest.raises(CorruptBlockError):
            decode_block(bytes(frame))

    def test_payload_bitflip_detected_by_crc(self):
        frame = self._frame()
        frame[HEADER_SIZE + 3] ^= 0x01
        with pytest.raises(CorruptBlockError):
            decode_block(bytes(frame))

    def test_unknown_codec_id(self):
        frame = self._frame()
        frame[3] = 200  # unused codec id
        # CRC still matches the payload, so the registry lookup fires.
        with pytest.raises(UnknownCodecError):
            decode_block(bytes(frame))

    def test_truncated_payload(self):
        frame = self._frame()
        with pytest.raises(TruncatedStreamError):
            decode_block(bytes(frame[:-5]))

    def test_short_header(self):
        with pytest.raises(TruncatedStreamError):
            decode_header(MAGIC + b"\x01")

    def test_length_lie_detected(self):
        # Tamper with the uncompressed length *and* fix nothing else:
        # decode must notice the mismatch after decompression.
        data = b"y" * 500
        frame = bytearray(encode_block(data, NullCodec()).frame)
        frame[8] = (frame[8] + 1) % 256  # uncompressed_len low byte
        with pytest.raises(CorruptBlockError):
            decode_block(bytes(frame))

    def test_oversized_compressed_len_rejected_before_allocation(self):
        # A corrupted length field claiming gigabytes must be rejected
        # at header-validation time, before any buffer is sized by it.
        frame = self._frame()
        frame[12:16] = (0x7FFF_FFFF).to_bytes(4, "little")  # compressed_len
        with pytest.raises(OversizedBlockError) as info:
            decode_header(bytes(frame))
        assert info.value.field == "compressed_len"
        assert info.value.bound == MAX_BLOCK_LEN

    def test_oversized_uncompressed_len_rejected(self):
        frame = self._frame()
        frame[8:12] = (MAX_BLOCK_LEN + 1).to_bytes(4, "little")
        with pytest.raises(OversizedBlockError):
            decode_header(bytes(frame))

    def test_oversized_is_a_corrupt_block_error(self):
        # Callers catching CorruptBlockError keep working unchanged.
        assert issubclass(OversizedBlockError, CorruptBlockError)

    def test_custom_bound_allows_larger_frames(self):
        data = b"z" * 100
        frame = encode_block(data, NullCodec()).frame
        header = decode_header(frame, max_len=200)
        assert header.uncompressed_len == 100
        with pytest.raises(OversizedBlockError):
            decode_header(frame, max_len=50)

    def test_reader_rejects_oversized_header(self):
        frame = self._frame()
        frame[12:16] = (0x4000_0000).to_bytes(4, "little")
        reader = BlockReader(io.BytesIO(bytes(frame)))
        with pytest.raises(OversizedBlockError):
            reader.read_block()


class TestWriterReader:
    def test_stream_roundtrip_mixed_codecs(self):
        buf = io.BytesIO()
        writer = BlockWriter(buf)
        codecs = [NullCodec(), LightZlibCodec(), LzmaCodec(preset=0), RleCodec()]
        blocks = [bytes([i]) * (100 + i * 37) for i in range(12)]
        for i, data in enumerate(blocks):
            writer.write_block(data, codecs[i % len(codecs)])
        assert writer.blocks_written == 12

        buf.seek(0)
        reader = BlockReader(buf)
        out = list(reader)
        assert out == blocks
        assert reader.blocks_read == 12
        assert reader.bytes_out == sum(len(b) for b in blocks)

    def test_reader_handles_short_reads(self):
        """Sockets return partial reads; the reader must loop."""
        data = b"dribble " * 64
        frame = encode_block(data, LightZlibCodec()).frame
        # Never more than 3 bytes per readinto.
        reader = BlockReader(ReadintoIO(bytes(frame * 2), max_chunk=3))
        assert reader.read_block() == data
        assert reader.read_block() == data
        assert reader.read_block() is None

    def test_truncation_mid_stream_raises(self):
        frame = encode_block(b"z" * 300, NullCodec()).frame
        reader = BlockReader(io.BytesIO(frame[: len(frame) // 2]))
        with pytest.raises(TruncatedStreamError):
            reader.read_block()

    def test_clean_eof_returns_none(self):
        reader = BlockReader(io.BytesIO(b""))
        assert reader.read_block() is None

    def test_writer_statistics(self):
        buf = io.BytesIO()
        writer = BlockWriter(buf)
        writer.write_block(b"\x00" * 1000, LightZlibCodec())
        assert writer.bytes_in == 1000
        assert writer.bytes_out == len(buf.getvalue())
        assert writer.bytes_out < 1000  # compressible data actually shrank


class TestBlockProperties:
    @given(data=st.binary(max_size=2048))
    @settings(max_examples=150)
    def test_roundtrip_any_bytes_zlib(self, data):
        assert decode_block(encode_block(data, LightZlibCodec()).frame) == data

    @given(data=st.binary(max_size=2048))
    @settings(max_examples=100)
    def test_roundtrip_any_bytes_null(self, data):
        block = encode_block(data, NullCodec())
        assert decode_block(block.frame) == data
        assert block.frame_len == HEADER_SIZE + len(data)

    @given(
        blocks=st.lists(st.binary(min_size=0, max_size=512), min_size=0, max_size=10),
        codec_idx=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60)
    def test_stream_roundtrip_property(self, blocks, codec_idx):
        codec = [NullCodec(), LightZlibCodec(), RleCodec()][codec_idx]
        buf = io.BytesIO()
        writer = BlockWriter(buf)
        for b in blocks:
            writer.write_block(b, codec)
        buf.seek(0)
        assert list(BlockReader(buf)) == blocks

    @given(data=st.binary(max_size=1024))
    @settings(max_examples=100)
    def test_frame_overhead_bounded(self, data):
        """With fallback, framing never costs more than the header."""
        block = encode_block(data, LzmaCodec(preset=0))
        assert block.frame_len <= HEADER_SIZE + len(data)


#: Every length the combine walks differently: 0, 1, and 2**k - 1, 2**k,
#: 2**k + 1 (one bit, all low bits, two bits) up to the frame ceiling.
COMBINE_LENGTHS = sorted(
    {0, 1}
    | {
        n
        for k in range(1, MAX_BLOCK_LEN.bit_length())
        for n in (2**k - 1, 2**k, 2**k + 1)
        if n <= MAX_BLOCK_LEN
    }
)


class TestCrc32Combine:
    """crc32_combine(crc(a), crc(b), len(b)) is crc(a + b), reading neither."""

    @given(
        a=st.binary(max_size=64),
        len2=st.sampled_from(COMBINE_LENGTHS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_crc_of_the_concatenation(self, a, len2, seed):
        b = random.Random(seed).randbytes(len2)
        combined = crc32_combine(zlib.crc32(a), zlib.crc32(b), len2)
        assert combined == zlib.crc32(a + b)

    def test_tables_built_by_racing_threads_are_right(self, monkeypatch):
        """Eight threads build the lazy tables at once from empty."""
        monkeypatch.setattr(block, "_CRC32_ZEROS", [])
        lengths = [MAX_BLOCK_LEN - 1, 2**20 + 1, 16383, 131073, 3, 2**21]
        cases = [(n, random.Random(n).randbytes(n)) for n in lengths]
        errors = []

        def run(offset: int) -> None:
            for n, b in cases[offset:] + cases[:offset]:
                if crc32_combine(7, zlib.crc32(b), n) != zlib.crc32(b, 7):
                    errors.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(i % len(cases),)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(block._CRC32_ZEROS) == MAX_BLOCK_LEN.bit_length()

    @pytest.mark.parametrize("len2", COMBINE_LENGTHS)
    def test_every_length_from_any_start(self, len2):
        b = random.Random(len2).randbytes(len2)
        for crc1 in (0, 1, 0xFFFFFFFF, 0x12345678):
            assert crc32_combine(crc1, zlib.crc32(b), len2) == zlib.crc32(b, crc1)


class TestBufferInputs:
    """encode_block accepts bytes | bytearray | memoryview identically."""

    def test_memoryview_input_matches_bytes(self, codec):
        data = b"buffer protocol " * 100
        from_bytes = encode_block(data, codec).frame
        from_view = encode_block(memoryview(data), codec).frame
        from_slice = encode_block(memoryview(data * 2)[: len(data)], codec).frame
        assert bytes(from_view) == bytes(from_bytes)
        assert bytes(from_slice) == bytes(from_bytes)

    def test_bytearray_input_matches_bytes(self, codec):
        data = b"mutable source " * 64
        assert bytes(encode_block(bytearray(data), codec).frame) == bytes(
            encode_block(data, codec).frame
        )

    def test_stored_fallback_from_memoryview(self):
        """RLE inflates this payload => stored frame, built from a view."""
        data = bytes(range(256)) * 4
        block = encode_block(memoryview(data), RleCodec())
        assert block.header.flags & FLAG_STORED_FALLBACK
        assert decode_block(block.frame) == data

    def test_decode_payload_direct(self):
        data = b"payload api " * 40
        block = encode_block(data, LightZlibCodec())
        header = decode_header(block.frame)
        assert decode_payload(header, bytes(block.frame[HEADER_SIZE:])) == data

    def test_decode_payload_crc_check(self):
        block = encode_block(b"q" * 500, NullCodec())
        payload = bytearray(block.frame[HEADER_SIZE:])
        payload[0] ^= 0xFF
        with pytest.raises(CorruptBlockError):
            decode_payload(decode_header(block.frame), bytes(payload))


class ReadintoIO:
    """Source exposing only ``readinto`` with bounded partial reads."""

    def __init__(self, data: bytes, max_chunk: int = 5) -> None:
        self._data = data
        self._pos = 0
        self.max_chunk = max_chunk
        self.readinto_calls = 0

    def readinto(self, b) -> int:
        self.readinto_calls += 1
        with memoryview(b) as view:
            n = min(view.nbytes, self.max_chunk, len(self._data) - self._pos)
            view[:n] = self._data[self._pos : self._pos + n]
            self._pos += n
            return n


class TestReaderReadinto:
    """BlockReader prefers the source's ``readinto`` (no copy per read)."""

    def frames(self, blocks, codec=None):
        codec = codec or LightZlibCodec()
        return b"".join(bytes(encode_block(b, codec).frame) for b in blocks)

    def test_roundtrip_via_readinto(self):
        blocks = [b"readinto " * 30, b"", b"\x00" * 400]
        source = ReadintoIO(self.frames(blocks), max_chunk=7)
        reader = BlockReader(source)
        assert list(reader) == blocks
        assert source.readinto_calls > 0

    def test_clean_eof_via_readinto(self):
        source = ReadintoIO(self.frames([b"tail" * 50]))
        reader = BlockReader(source)
        assert reader.read_block() == b"tail" * 50
        assert reader.read_block() is None  # EOF at a frame boundary

    def test_truncation_via_readinto(self):
        whole = self.frames([b"cut me off" * 40])
        source = ReadintoIO(whole[: len(whole) - 3])
        reader = BlockReader(source)
        with pytest.raises(TruncatedStreamError):
            reader.read_block()
