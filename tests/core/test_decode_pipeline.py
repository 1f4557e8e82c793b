"""ParallelBlockDecoder: ordering, errors, resync composition, identity."""

from __future__ import annotations

import io
import threading
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import (
    HEADER_SIZE,
    BlockHeader,
    BlockReader,
    BlockWriter,
    CodecRegistry,
    CorruptBlockError,
    LightZlibCodec,
    NullCodec,
    encode_block,
)
from repro.codecs.base import Codec, CodecInfo
from repro.codecs.block import frame_payload
from repro.core import StaticBlockWriter
from repro.core.buffers import BufferPool
from repro.core.pipeline import ParallelBlockDecoder, make_block_decoder
from repro.core.recovery import ResyncBlockReader
from repro.telemetry.events import (
    BUS,
    BufferPoolStats,
    PipelineQueueDepth,
    SpanClosed,
)

from ..conftest import all_codecs


@pytest.fixture(autouse=True)
def clean_default_bus():
    """These tests subscribe to the process-wide bus; keep it pristine."""
    BUS.clear()
    yield
    BUS.clear()


def make_stream(blocks, codec=None):
    codec = codec or LightZlibCodec()
    sink = io.BytesIO()
    writer = BlockWriter(sink)
    for block in blocks:
        writer.write_block(block, codec)
    return sink.getvalue()


BLOCKS = [bytes([65 + i]) * 3000 + b"tail %d" % i for i in range(8)]


class IdentityCodec(Codec):
    """Identity transform under a private codec id (no stored fallback)."""

    info = CodecInfo(codec_id=7, name="test-identity", description="identity")

    def compress(self, data) -> bytes:
        return bytes(data)

    def decompress(self, data) -> bytes:
        return bytes(data)


class StallingDecodeCodec(IdentityCodec):
    """Identity codec whose *decompress* stalls on chosen payloads.

    Decompressing a payload starting with ``slow_prefix`` sleeps, so a
    later frame reliably finishes first — the adversarial schedule for
    the decoder's in-order reassembly guarantee.
    """

    def __init__(self, slow_prefix: bytes, delay: float = 0.05) -> None:
        self._slow_prefix = slow_prefix
        self._delay = delay

    def decompress(self, data) -> bytes:
        if bytes(data[: len(self._slow_prefix)]) == self._slow_prefix:
            time.sleep(self._delay)
        return bytes(data)


class ExplodingDecodeCodec(IdentityCodec):
    """Raises while decompressing a chosen payload."""

    def __init__(self, poison: bytes) -> None:
        self._poison = poison

    def decompress(self, data) -> bytes:
        if bytes(data) == self._poison:
            raise RuntimeError("boom in decode worker")
        return bytes(data)


class GatedDecodeCodec(IdentityCodec):
    """Blocks every decompress until ``release`` is set (window probe)."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)

    def decompress(self, data) -> bytes:
        self.entered.release()
        assert self.release.wait(timeout=30.0), "gate never opened"
        return bytes(data)


def custom_stream(blocks, codec):
    """Frame ``blocks`` under ``codec``'s own id and return (wire,
    registry that resolves that id).  The frames are built by hand: the
    encoders would store a payload the codec does not shrink under id 0."""
    wire = bytearray()
    for block in blocks:
        payload = codec.compress(block)
        header = BlockHeader(
            codec_id=codec.codec_id,
            flags=0,
            uncompressed_len=len(block),
            compressed_len=len(payload),
            crc32=zlib.crc32(payload),
        )
        wire += frame_payload(header, payload).frame
    registry = CodecRegistry()
    registry.register(NullCodec())
    registry.register(codec)
    return bytes(wire), registry


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("use_pool", [False, True], ids=["no-pool", "pool"])
    def test_identical_to_serial_reader(self, workers, use_pool):
        wire = make_stream(BLOCKS)
        serial = list(BlockReader(io.BytesIO(wire)))
        pool = BufferPool() if use_pool else None
        with ParallelBlockDecoder(
            io.BytesIO(wire), workers=workers, pool=pool
        ) as decoder:
            got = list(decoder)
            assert got == serial == BLOCKS
            assert decoder.blocks_read == len(BLOCKS)
            assert decoder.bytes_out == sum(len(b) for b in BLOCKS)
            assert decoder.bytes_in == len(wire)
            assert decoder.blocks_skipped == 0

    def test_mixed_codec_stream(self):
        """Per-block codec switches (the adaptive scheme's wire) decode
        identically through the pipeline."""
        codecs = all_codecs()
        sink = io.BytesIO()
        writer = BlockWriter(sink)
        for i, block in enumerate(BLOCKS):
            writer.write_block(block, codecs[i % len(codecs)])
        wire = sink.getvalue()
        with ParallelBlockDecoder(io.BytesIO(wire), workers=3) as decoder:
            assert list(decoder) == BLOCKS

    def test_empty_stream(self):
        with ParallelBlockDecoder(io.BytesIO(b""), workers=2) as decoder:
            assert decoder.read_block() is None
            # EOF is sticky.
            assert decoder.read_block() is None
            assert decoder.blocks_read == 0

    def test_single_block(self):
        wire = make_stream([b"only"])
        with ParallelBlockDecoder(io.BytesIO(wire), workers=4) as decoder:
            assert decoder.read_block() == b"only"
            assert decoder.read_block() is None


class TestInOrderReassembly:
    def test_slow_first_block_does_not_reorder(self):
        """Block 0 finishes decompressing last; it must still come out
        first."""
        codec = StallingDecodeCodec(slow_prefix=BLOCKS[0][:1])
        wire, registry = custom_stream(BLOCKS, codec)
        with ParallelBlockDecoder(
            io.BytesIO(wire), registry, workers=4
        ) as decoder:
            assert list(decoder) == BLOCKS


class TestErrorPropagation:
    def test_worker_error_raised_after_good_prefix(self):
        """A failing decompress at block 3 must not poison blocks 0-2."""
        codec = ExplodingDecodeCodec(poison=BLOCKS[3])
        wire, registry = custom_stream(BLOCKS, codec)
        decoder = ParallelBlockDecoder(io.BytesIO(wire), registry, workers=4)
        assert decoder.read_block() == BLOCKS[0]
        assert decoder.read_block() == BLOCKS[1]
        assert decoder.read_block() == BLOCKS[2]
        with pytest.raises(RuntimeError, match="boom in decode worker"):
            decoder.read_block()
        decoder.close()
        self._assert_joined(decoder)

    def test_fetcher_crc_error_in_strict_mode(self):
        """Strict mode: corruption surfaces as the serial reader's
        CorruptBlockError, after the intact prefix."""
        wire = bytearray(make_stream(BLOCKS))
        frame = len(encode_block(BLOCKS[0], LightZlibCodec()).frame)
        wire[2 * frame + HEADER_SIZE + 5] ^= 0xFF
        decoder = ParallelBlockDecoder(io.BytesIO(bytes(wire)), workers=2)
        assert decoder.read_block() == BLOCKS[0]
        assert decoder.read_block() == BLOCKS[1]
        with pytest.raises(CorruptBlockError):
            decoder.read_block()
        decoder.close()
        self._assert_joined(decoder)

    def test_close_after_error_does_not_reraise(self):
        codec = ExplodingDecodeCodec(poison=BLOCKS[0])
        wire, registry = custom_stream(BLOCKS, codec)
        decoder = ParallelBlockDecoder(io.BytesIO(wire), registry, workers=2)
        with pytest.raises(RuntimeError):
            decoder.read_block()
        decoder.close()
        self._assert_joined(decoder)

    def test_abort_tears_down_and_clears_error(self):
        codec = ExplodingDecodeCodec(poison=BLOCKS[0])
        wire, registry = custom_stream(BLOCKS, codec)
        decoder = ParallelBlockDecoder(io.BytesIO(wire), registry, workers=2)
        with pytest.raises(RuntimeError):
            decoder.read_block()
        decoder.abort()
        decoder.abort()
        self._assert_joined(decoder)

    @staticmethod
    def _assert_joined(decoder):
        assert not decoder._fetcher.is_alive()
        for thread in decoder.codec_pool._threads:
            assert not thread.is_alive()


class TestResyncComposition:
    """Satellite: ResyncBlockReader semantics through the pipeline."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_midstream_corruption_skips_one_block(self, workers):
        """One flipped payload byte loses exactly that block; order and
        count of the survivors are unchanged at any worker count."""
        wire = bytearray(make_stream(BLOCKS))
        frame = len(encode_block(BLOCKS[0], LightZlibCodec()).frame)
        wire[2 * frame + HEADER_SIZE + 5] ^= 0xFF
        decoder = make_block_decoder(
            io.BytesIO(bytes(wire)), workers=workers, resync=True
        )
        try:
            got = list(decoder)
            assert got == BLOCKS[:2] + BLOCKS[3:]
            assert decoder.blocks_skipped == 1
            assert decoder.bytes_skipped > 0
        finally:
            decoder.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_resync_reader(self, workers):
        """Block-for-block and skip-for-skip parity with the serial
        ResyncBlockReader on the same damaged wire."""
        wire = bytearray(make_stream(BLOCKS))
        frame = len(encode_block(BLOCKS[0], LightZlibCodec()).frame)
        wire[3 * frame] ^= 0xFF  # kill frame 3's magic
        wire[5 * frame + HEADER_SIZE] ^= 0xFF  # corrupt frame 5's payload
        wire = bytes(wire)

        serial = ResyncBlockReader(io.BytesIO(wire))
        expected = list(serial)
        decoder = make_block_decoder(io.BytesIO(wire), workers=workers, resync=True)
        try:
            assert list(decoder) == expected
            assert decoder.blocks_skipped == serial.blocks_skipped
            assert decoder.bytes_skipped == serial.bytes_skipped
        finally:
            decoder.close()

    def test_clean_stream_has_no_skips(self):
        wire = make_stream(BLOCKS)
        with ParallelBlockDecoder(io.BytesIO(wire), workers=4, resync=True) as d:
            assert list(d) == BLOCKS
            assert d.blocks_skipped == 0
            assert d.bytes_skipped == 0


class TestLifecycle:
    def test_close_is_idempotent_and_joins(self):
        wire = make_stream(BLOCKS)
        decoder = ParallelBlockDecoder(io.BytesIO(wire), workers=3)
        decoder.read_block()
        decoder.close()
        decoder.close()
        assert not decoder._fetcher.is_alive()
        for thread in decoder.codec_pool._threads:
            assert not thread.is_alive()

    def test_close_with_unread_blocks_does_not_hang(self):
        """Teardown discards in-flight work instead of draining it."""
        wire = make_stream([bytes([i % 251]) * 4096 for i in range(64)])
        decoder = ParallelBlockDecoder(io.BytesIO(wire), workers=2)
        assert decoder.read_block() is not None
        decoder.close()
        assert not decoder._fetcher.is_alive()

    def test_context_manager(self):
        wire = make_stream(BLOCKS[:2])
        with ParallelBlockDecoder(io.BytesIO(wire), workers=2) as decoder:
            assert list(decoder) == BLOCKS[:2]
        assert not decoder._fetcher.is_alive()

    def test_read_ahead_window_is_bounded(self):
        """With decompression gated shut, the fetcher must park after
        ``max_in_flight`` frames instead of slurping the stream."""
        codec = GatedDecodeCodec()
        wire, registry = custom_stream(BLOCKS, codec)
        decoder = ParallelBlockDecoder(
            io.BytesIO(wire), registry, workers=2, max_in_flight=2
        )
        try:
            # Both permitted frames reach workers and stall in the gate.
            assert codec.entered.acquire(timeout=10.0)
            assert codec.entered.acquire(timeout=10.0)
            time.sleep(0.1)
            assert decoder._fetched == 2
            codec.release.set()
            assert list(decoder) == BLOCKS
        finally:
            codec.release.set()
            decoder.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ParallelBlockDecoder(io.BytesIO(), workers=0)
        with pytest.raises(ValueError):
            ParallelBlockDecoder(io.BytesIO(), workers=4, max_in_flight=2)
        with pytest.raises(ValueError):
            make_block_decoder(io.BytesIO(), workers=0)


class TestFactory:
    def test_workers_one_is_plain_serial_reader(self):
        decoder = make_block_decoder(io.BytesIO(b""))
        assert type(decoder) is BlockReader

    def test_workers_one_resync_is_serial_resync_reader(self):
        decoder = make_block_decoder(io.BytesIO(b""), resync=True)
        assert type(decoder) is ResyncBlockReader

    def test_workers_many_is_pipeline(self):
        decoder = make_block_decoder(io.BytesIO(b""), workers=3)
        assert isinstance(decoder, ParallelBlockDecoder)
        assert decoder.workers == 3
        decoder.close()


class TestDecoderTelemetry:
    def test_queue_depth_events_published(self):
        got = []
        BUS.subscribe(got.append, PipelineQueueDepth)
        wire = make_stream(BLOCKS)
        with ParallelBlockDecoder(
            io.BytesIO(wire), workers=2, event_source="t"
        ) as decoder:
            list(decoder)
        assert len(got) == len(BLOCKS)
        assert all(e.source == "t" and e.workers == 2 for e in got)

    def test_per_worker_decompress_spans(self):
        spans = []
        BUS.subscribe(spans.append, SpanClosed)
        wire = make_stream(BLOCKS)
        with ParallelBlockDecoder(io.BytesIO(wire), workers=2) as decoder:
            list(decoder)
        decode_spans = [s for s in spans if s.name == "pipeline.decompress"]
        assert len(decode_spans) == len(BLOCKS)
        workers_seen = {dict(s.tags)["worker"] for s in decode_spans}
        assert workers_seen <= {0, 1}
        assert all(dict(s.tags)["codec"] == "zlib-1" for s in decode_spans)

    def test_pool_stats_published_at_close(self):
        got = []
        BUS.subscribe(got.append, BufferPoolStats)
        wire = make_stream(BLOCKS)
        with ParallelBlockDecoder(
            io.BytesIO(wire), workers=2, pool=BufferPool(), event_source="p"
        ) as decoder:
            list(decoder)
        assert len(got) == 1
        stats = got[0]
        assert stats.source == "p"
        assert stats.hits + stats.misses > 0

    def test_zero_cost_when_idle(self):
        """No subscribers => no events constructed anywhere on the
        decode path, pool included."""
        BUS.clear()
        before = BUS.published
        wire = make_stream(BLOCKS)
        with ParallelBlockDecoder(
            io.BytesIO(wire), workers=2, pool=BufferPool()
        ) as decoder:
            list(decoder)
        assert BUS.published == before


class TestByteIdentityProperty:
    """Satellite: serial encode -> parallel decode == serial decode."""

    @given(
        payload=st.binary(min_size=0, max_size=8192),
        block_size=st.integers(min_value=16, max_value=1024),
        workers=st.sampled_from([2, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_parallel_decode_identical_all_codecs(
        self, payload, block_size, workers
    ):
        """Any payload and block split, every codec family (stored
        fallback included): the pipeline yields the serial reader's
        exact block sequence."""
        for codec in all_codecs():
            sink = io.BytesIO()
            writer = BlockWriter(sink)
            for off in range(0, len(payload), block_size):
                writer.write_block(payload[off : off + block_size], codec)
            wire = sink.getvalue()
            serial = list(BlockReader(io.BytesIO(wire)))
            with ParallelBlockDecoder(
                io.BytesIO(wire), workers=workers, pool=BufferPool()
            ) as decoder:
                assert list(decoder) == serial, codec.name

    @given(
        chunks=st.lists(st.binary(min_size=0, max_size=700), max_size=8),
        level=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_flush_boundaries_preserved(self, chunks, level):
        """flush() between writes emits partial blocks; the pipeline
        must reproduce the serial reader's sequence across every such
        boundary."""
        sink = io.BytesIO()
        writer = StaticBlockWriter(sink, level, block_size=256)
        for chunk in chunks:
            writer.write(chunk)
            writer.flush()
        writer.close()
        wire = sink.getvalue()
        serial = list(BlockReader(io.BytesIO(wire)))
        with ParallelBlockDecoder(io.BytesIO(wire), workers=3) as decoder:
            got = list(decoder)
        assert got == serial
        assert b"".join(got) == b"".join(chunks)
