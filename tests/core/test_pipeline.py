"""ParallelBlockEncoder: ordering, errors, draining, byte identity."""

from __future__ import annotations

import io
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import (
    HEADER_SIZE,
    BlockReader,
    BlockWriter,
    Bz2Codec,
    NullCodec,
    RleCodec,
)
from repro.codecs.base import Codec, CodecInfo
from repro.codecs.zlib_codec import LightZlibCodec
from repro.core import AdaptiveBlockWriter, StaticBlockWriter
from repro.core.buffers import BufferPool
from repro.core.pipeline import (
    ParallelBlockDecoder,
    ParallelBlockEncoder,
    make_block_encoder,
)
from repro.data.corpus import Compressibility, generate
from repro.telemetry.events import BUS, PipelineQueueDepth, SpanClosed

from ..conftest import all_codecs


@pytest.fixture(autouse=True)
def clean_default_bus():
    """These tests subscribe to the process-wide bus; keep it pristine."""
    BUS.clear()
    yield
    BUS.clear()


class StaggerCodec(Codec):
    """Identity codec that stalls on chosen block contents.

    Compressing any payload starting with ``slow_prefix`` sleeps, so a
    later-submitted block reliably *finishes* first — the adversarial
    schedule for the in-order reassembly guarantee.
    """

    info = CodecInfo(codec_id=0, name="null", description="stalling identity")

    def __init__(self, slow_prefix: bytes, delay: float = 0.05) -> None:
        self._slow_prefix = slow_prefix
        self._delay = delay

    def compress(self, data) -> bytes:
        if bytes(data[: len(self._slow_prefix)]) == self._slow_prefix:
            time.sleep(self._delay)
        return bytes(data)

    def decompress(self, data) -> bytes:
        return bytes(data)


class ExplodingCodec(Codec):
    """Raises on a chosen block; healthy blocks pass through."""

    info = CodecInfo(codec_id=0, name="null", description="exploding identity")

    def __init__(self, poison: bytes) -> None:
        self._poison = poison

    def compress(self, data) -> bytes:
        if bytes(data) == self._poison:
            raise RuntimeError("boom in worker")
        return bytes(data)

    def decompress(self, data) -> bytes:
        return bytes(data)


class GatedCodec(Codec):
    """Blocks every compress until ``release`` is set (backpressure probe)."""

    info = CodecInfo(codec_id=0, name="null", description="gated identity")

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)

    def compress(self, data) -> bytes:
        self.entered.release()
        assert self.release.wait(timeout=30.0), "gate never opened"
        return bytes(data)

    def decompress(self, data) -> bytes:
        return bytes(data)


def blocks_of(n_blocks: int, size: int = 512) -> list:
    return [bytes([i % 251]) * size for i in range(n_blocks)]


class TestInOrderReassembly:
    def test_slow_first_block_does_not_reorder(self):
        """Block 0 finishes last; the wire stream must still start with it."""
        blocks = blocks_of(8)
        codec = StaggerCodec(slow_prefix=blocks[0][:1])
        sink = io.BytesIO()
        with ParallelBlockEncoder(sink, workers=4) as encoder:
            for block in blocks:
                encoder.write_block(block, codec)
        decoded = list(BlockReader(io.BytesIO(sink.getvalue())))
        assert decoded == blocks

    def test_matches_serial_writer_bytes(self):
        blocks = blocks_of(12, size=300)
        codec = StaggerCodec(slow_prefix=blocks[0][:1], delay=0.02)
        serial_sink = io.BytesIO()
        serial = BlockWriter(serial_sink)
        for block in blocks:
            serial.write_block(block, codec)
        parallel_sink = io.BytesIO()
        with ParallelBlockEncoder(parallel_sink, workers=4) as encoder:
            for block in blocks:
                encoder.write_block(block, codec)
        assert parallel_sink.getvalue() == serial_sink.getvalue()

    def test_counters_match_serial(self):
        blocks = blocks_of(10)
        sink = io.BytesIO()
        encoder = ParallelBlockEncoder(sink, workers=2)
        for block in blocks:
            encoder.write_block(block, NullCodec())
        encoder.close()
        assert encoder.blocks_written == 10
        assert encoder.bytes_in == sum(len(b) for b in blocks)
        assert encoder.bytes_out == len(sink.getvalue())


class TestErrorPropagation:
    def test_worker_exception_reraised_at_call_site(self):
        codec = ExplodingCodec(poison=b"\x01" * 512)
        encoder = ParallelBlockEncoder(io.BytesIO(), workers=2)
        with pytest.raises(RuntimeError, match="boom in worker"):
            for block in blocks_of(64):
                encoder.write_block(block, codec)
            encoder.flush()
        # The latched error surfaces again on close; workers still join.
        with pytest.raises(RuntimeError, match="boom in worker"):
            encoder.close()
        for thread in encoder.codec_pool._threads:
            assert not thread.is_alive()

    def test_close_reraises_and_still_joins_workers(self):
        codec = ExplodingCodec(poison=b"\x00" * 512)
        encoder = ParallelBlockEncoder(io.BytesIO(), workers=2)
        encoder.write_block(b"\x00" * 512, codec)
        with pytest.raises(RuntimeError, match="boom in worker"):
            encoder.close()
        for thread in encoder.codec_pool._threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    def test_error_stops_frame_emission(self):
        """No frames are written past a failed block."""
        blocks = blocks_of(6)
        codec = ExplodingCodec(poison=blocks[2])
        sink = io.BytesIO()
        encoder = ParallelBlockEncoder(sink, workers=1)
        with pytest.raises(RuntimeError):
            for block in blocks:
                encoder.write_block(block, codec)
            encoder.flush()
        with pytest.raises(RuntimeError):
            encoder.close()
        decoded = list(BlockReader(io.BytesIO(sink.getvalue())))
        # Only (a prefix of) the blocks before the poison may have been
        # framed — never anything after it.
        assert decoded == blocks[: len(decoded)]
        assert len(decoded) <= 2


class TestFlushClose:
    def test_flush_drains_all_in_flight(self):
        sink = io.BytesIO()
        encoder = ParallelBlockEncoder(sink, workers=4)
        blocks = blocks_of(7)
        for block in blocks:
            encoder.write_block(block, LightZlibCodec())
        encoder.flush()
        assert encoder.in_flight == 0
        assert encoder.blocks_written == 7
        assert list(BlockReader(io.BytesIO(sink.getvalue()))) == blocks
        encoder.close()

    def test_close_is_idempotent_and_joins(self):
        encoder = ParallelBlockEncoder(io.BytesIO(), workers=3)
        encoder.write_block(b"x" * 100, NullCodec())
        encoder.close()
        encoder.close()
        for thread in encoder.codec_pool._threads:
            assert not thread.is_alive()

    def test_write_after_close_raises(self):
        encoder = ParallelBlockEncoder(io.BytesIO(), workers=2)
        encoder.close()
        with pytest.raises(ValueError, match="closed"):
            encoder.write_block(b"x", NullCodec())

    def test_context_manager_drains(self):
        sink = io.BytesIO()
        with ParallelBlockEncoder(sink, workers=2) as encoder:
            encoder.write_block(b"y" * 2000, LightZlibCodec())
        assert list(BlockReader(io.BytesIO(sink.getvalue()))) == [b"y" * 2000]


class TestBackpressure:
    def test_submission_window_is_bounded(self):
        codec = GatedCodec()
        encoder = ParallelBlockEncoder(io.BytesIO(), workers=2, max_in_flight=3)
        for block in blocks_of(3):
            encoder.write_block(block, codec)
        assert encoder.in_flight == 3

        blocked = threading.Event()

        def submit_fourth():
            encoder.write_block(b"\xff" * 512, codec)
            blocked.set()

        t = threading.Thread(target=submit_fourth, daemon=True)
        t.start()
        # The 4th submission must stall while the window is full...
        assert not blocked.wait(timeout=0.2)
        assert encoder.in_flight == 3
        # ...and proceed once workers drain.
        codec.release.set()
        assert blocked.wait(timeout=10.0)
        t.join(timeout=10.0)
        encoder.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ParallelBlockEncoder(io.BytesIO(), workers=0)
        with pytest.raises(ValueError):
            ParallelBlockEncoder(io.BytesIO(), workers=4, max_in_flight=2)
        with pytest.raises(ValueError):
            make_block_encoder(io.BytesIO(), workers=0)


class TestFactory:
    def test_workers_one_is_plain_serial_writer(self):
        encoder = make_block_encoder(io.BytesIO(), workers=1)
        assert type(encoder) is BlockWriter

    def test_workers_many_is_pipeline(self):
        encoder = make_block_encoder(io.BytesIO(), workers=3)
        assert isinstance(encoder, ParallelBlockEncoder)
        assert encoder.workers == 3
        encoder.close()


class TestByteIdentityProperty:
    @given(
        payload=st.binary(min_size=0, max_size=8192),
        block_size=st.integers(min_value=16, max_value=1024),
    )
    @settings(max_examples=30, deadline=None)
    def test_serial_vs_four_workers_identical_all_codecs(
        self, payload, block_size
    ):
        """Same data, same codec schedule => identical wire bytes,
        including codecs whose output can trigger the stored fallback."""
        for codec in all_codecs():
            streams = []
            for workers in (1, 4):
                sink = io.BytesIO()
                encoder = make_block_encoder(sink, workers=workers)
                for off in range(0, len(payload), block_size):
                    encoder.write_block(payload[off : off + block_size], codec)
                encoder.flush()
                encoder.close()
                streams.append(sink.getvalue())
            assert streams[0] == streams[1], codec.name

    @given(payload=st.binary(min_size=1, max_size=4096))
    @settings(max_examples=30, deadline=None)
    def test_stored_fallback_identical(self, payload):
        """RLE inflates arbitrary data => fallback frames, still identical."""
        streams = []
        for workers in (1, 4):
            sink = io.BytesIO()
            encoder = make_block_encoder(sink, workers=workers)
            encoder.write_block(payload, RleCodec())
            encoder.close()
            streams.append(sink.getvalue())
        assert streams[0] == streams[1]
        assert list(BlockReader(io.BytesIO(streams[0]))) == [payload]

    @pytest.mark.parametrize(
        "kind, codec",
        [
            ("HIGH", Bz2Codec(level=1)),
            ("LOW", LightZlibCodec()),
            ("random", LightZlibCodec()),
        ],
        ids=["HIGH-bz2-1", "LOW-zlib-1", "random-stored"],
    )
    def test_paper_block_size_both_pipelines(self, kind, codec):
        """The paper's 128 KiB blocks over 2 MiB: the 4-worker encode is
        the serial encode byte for byte, and the 4-worker decoder with a
        buffer pool returns the serial reader's blocks.  The LOW corpus
        still shrinks to about 0.92 under LIGHT, so only random bytes
        give full-block stored-fallback frames."""
        block_size = 128 * 1024
        if kind == "random":
            data = random.Random(0).randbytes(2 * 2**20)
        else:
            data = generate(Compressibility[kind], 2 * 2**20)
        streams = []
        for workers in (1, 4):
            sink = io.BytesIO()
            encoder = make_block_encoder(sink, workers=workers)
            for off in range(0, len(data), block_size):
                encoder.write_block(data[off : off + block_size], codec)
            encoder.close()
            streams.append(sink.getvalue())
        assert streams[0] == streams[1]
        serial = list(BlockReader(io.BytesIO(streams[0])))
        assert b"".join(serial) == data
        with ParallelBlockDecoder(
            io.BytesIO(streams[0]), workers=4, pool=BufferPool()
        ) as decoder:
            assert list(decoder) == serial
        if kind == "random":
            frames = len(data) // block_size
            assert len(streams[0]) == len(data) + frames * HEADER_SIZE


class SteppingClock:
    """Clock advancing a fixed amount per call (deterministic epochs)."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestStreamLayerIntegration:
    def test_adaptive_writer_serial_vs_parallel_identical(self):
        payload = bytes(range(256)) * 600
        streams = []
        for workers in (1, 4):
            sink = io.BytesIO()
            writer = AdaptiveBlockWriter(
                sink,
                block_size=1024,
                epoch_seconds=0.25,
                clock=SteppingClock(0.01),
                workers=workers,
            )
            for off in range(0, len(payload), 700):
                writer.write(payload[off : off + 700])
            writer.close()
            streams.append(sink.getvalue())
        assert streams[0] == streams[1]
        assert b"".join(BlockReader(io.BytesIO(streams[0]))) == payload

    def test_static_writer_parallel_roundtrip(self):
        payload = b"static pipeline " * 4000
        sink = io.BytesIO()
        writer = StaticBlockWriter(sink, 2, block_size=2048, workers=4)
        writer.write(payload)
        writer.close()
        assert b"".join(BlockReader(io.BytesIO(sink.getvalue()))) == payload

    def test_stream_counters_with_workers(self):
        payload = b"c" * 10_000
        sink = io.BytesIO()
        writer = StaticBlockWriter(sink, 1, block_size=1024, workers=2)
        writer.write(payload)
        writer.close()
        assert writer.bytes_in == len(payload)
        assert writer.bytes_out == len(sink.getvalue())


class TestPipelineTelemetry:
    def test_queue_depth_events_published(self):
        got = []
        BUS.subscribe(got.append, PipelineQueueDepth)
        with ParallelBlockEncoder(io.BytesIO(), workers=2, source="t") as encoder:
            for block in blocks_of(5):
                encoder.write_block(block, NullCodec())
        assert len(got) == 5
        assert all(e.source == "t" and e.workers == 2 for e in got)
        assert all(0 <= e.depth <= e.in_flight <= 4 for e in got)

    def test_per_worker_compress_spans(self):
        spans = []
        BUS.subscribe(spans.append, SpanClosed)
        with ParallelBlockEncoder(io.BytesIO(), workers=2) as encoder:
            for block in blocks_of(6):
                encoder.write_block(block, LightZlibCodec())
        pipeline_spans = [s for s in spans if s.name == "pipeline.compress"]
        assert len(pipeline_spans) == 6
        workers_seen = {dict(s.tags)["worker"] for s in pipeline_spans}
        assert workers_seen <= {0, 1}
        assert all(dict(s.tags)["codec"] == "zlib-1" for s in pipeline_spans)

    def test_zero_cost_when_idle(self):
        """No subscribers => no events constructed anywhere in the pipeline."""
        BUS.clear()
        before = BUS.published
        with ParallelBlockEncoder(io.BytesIO(), workers=2) as encoder:
            for block in blocks_of(10):
                encoder.write_block(block, LightZlibCodec())
        assert BUS.published == before
