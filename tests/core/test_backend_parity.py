"""Property tests: the serial and threaded codec paths agree.

Whatever the block sizes, flush boundaries, compression levels or
mid-stream faults, the bytes on the wire and the bytes recovered must
be identical across the serial writer/reader, a pipeline that owns its
thread pool, and a pipeline on a shared pool (as every serve flow
runs).  Hypothesis drives the block plans; one module-scoped
:class:`CodecThreadPool` is the shared pool.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.block import HEADER, HEADER_SIZE, BlockReader
from repro.core.levels import default_level_table
from repro.core.pipeline import CodecThreadPool, make_block_decoder, make_block_encoder

LEVELS = default_level_table()


@pytest.fixture(scope="module")
def shared_pool():
    with CodecThreadPool(2, name="parity-shared") as pool:
        yield pool


@st.composite
def block_plan(draw):
    """(blocks, flush-after flags, level index) for one encode run."""
    blocks = draw(
        st.lists(st.binary(min_size=0, max_size=2048), min_size=1, max_size=6)
    )
    flushes = draw(
        st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks))
    )
    level = draw(st.integers(min_value=0, max_value=3))
    return blocks, flushes, level


def _encode(blocks, flushes, codec, **encoder_kwargs) -> bytes:
    sink = io.BytesIO()
    encoder = make_block_encoder(sink, **encoder_kwargs)
    for data, flush_after in zip(blocks, flushes):
        encoder.write_block(data, codec)
        if flush_after:
            encoder.flush()
    encoder.close()
    return sink.getvalue()


def _frame_offsets(stream: bytes):
    """[(frame_start, payload_len), ...] parsed straight off the wire."""
    offsets = []
    pos = 0
    while pos < len(stream):
        fields = HEADER.unpack_from(stream, pos)
        clen = fields[5]
        offsets.append((pos, clen))
        pos += HEADER_SIZE + clen
    return offsets


class TestEncodeParity:
    @given(plan=block_plan())
    @settings(max_examples=10, deadline=None)
    def test_threads_match_serial(self, shared_pool, plan):
        blocks, flushes, level = plan
        codec = LEVELS.codec(level)
        serial = _encode(blocks, flushes, codec, workers=1)
        threaded = _encode(blocks, flushes, codec, workers=2)
        shared = _encode(blocks, flushes, codec, workers=2, codec_pool=shared_pool)
        assert threaded == serial
        assert shared == serial

    @given(plan=block_plan())
    @settings(max_examples=5, deadline=None)
    def test_one_worker_shared_pool_matches_serial(self, shared_pool, plan):
        blocks, flushes, level = plan
        codec = LEVELS.codec(level)
        serial = _encode(blocks, flushes, codec, workers=1)
        shared = _encode(blocks, flushes, codec, workers=1, codec_pool=shared_pool)
        assert shared == serial


class TestDecodeParity:
    @given(plan=block_plan())
    @settings(max_examples=10, deadline=None)
    def test_all_backends_recover_identical_blocks(self, shared_pool, plan):
        blocks, flushes, level = plan
        codec = LEVELS.codec(level)
        stream = _encode(blocks, flushes, codec, workers=1)
        serial = list(BlockReader(io.BytesIO(stream)))
        threaded = list(make_block_decoder(io.BytesIO(stream), workers=2))
        shared = list(
            make_block_decoder(io.BytesIO(stream), workers=2, codec_pool=shared_pool)
        )
        expected = [bytes(b) for b in blocks]
        assert [bytes(b) for b in serial] == expected
        assert [bytes(b) for b in threaded] == expected
        assert [bytes(b) for b in shared] == expected


class TestResyncParity:
    @given(
        blocks=st.lists(
            st.binary(min_size=1, max_size=2048), min_size=3, max_size=6
        ),
        level=st.integers(min_value=0, max_value=3),
        corrupt_at=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_fault_recovery_identical_across_backends(
        self, shared_pool, blocks, level, corrupt_at
    ):
        """Flip one payload byte mid-stream: every decoder must skip the
        same frame and recover the same suffix."""
        codec = LEVELS.codec(level)
        stream = bytearray(
            _encode(blocks, [False] * len(blocks), codec, workers=1)
        )
        offsets = _frame_offsets(bytes(stream))
        frame_start, clen = offsets[corrupt_at % len(offsets)]
        stream[frame_start + HEADER_SIZE + clen // 2] ^= 0xFF

        def decode(**kwargs):
            reader = make_block_decoder(
                io.BytesIO(bytes(stream)), resync=True, **kwargs
            )
            out = [bytes(b) for b in reader]
            reader.close()
            return out

        serial = decode(workers=1)
        threaded = decode(workers=2)
        shared = decode(workers=2, codec_pool=shared_pool)
        expected = [bytes(b) for b in blocks]
        # The corrupted frame is dropped, everything else survives.
        assert all(b in expected for b in serial)
        assert len(serial) >= len(blocks) - 1
        assert threaded == serial
        assert shared == serial
