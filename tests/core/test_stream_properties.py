"""Property-based tests for the adaptive block-stream layer."""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import BlockReader
from repro.core import AdaptiveBlockWriter, StaticBlockWriter


class SteppingClock:
    """Clock advancing a fixed amount per call (deterministic epochs)."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class VectoredSink:
    """An in-memory sink with ``writev``, as a socket writer has."""

    def __init__(self) -> None:
        self._data = bytearray()

    def write(self, data) -> int:
        self._data += data
        return len(data)

    def writev(self, parts) -> int:
        return sum(self.write(part) for part in parts)

    def getvalue(self) -> bytes:
        return bytes(self._data)


def make_sink(vectored: bool):
    return VectoredSink() if vectored else io.BytesIO()


@st.composite
def chunked_payload(draw):
    """A payload split into arbitrary chunks."""
    chunks = draw(
        st.lists(
            st.binary(min_size=0, max_size=700),
            min_size=0,
            max_size=20,
        )
    )
    return chunks


class TestAdaptiveStreamProperties:
    @given(
        chunks=chunked_payload(),
        block_size=st.integers(min_value=16, max_value=2048),
        clock_step=st.floats(min_value=0.001, max_value=0.2),
        epoch_seconds=st.floats(min_value=0.01, max_value=1.0),
        vectored=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_any_chunking_and_timing(
        self, chunks, block_size, clock_step, epoch_seconds, vectored
    ):
        """Whatever the chunking, block size and epoch timing (and thus
        whatever level changes happen mid-stream), and whether the sink
        takes frames through ``write`` or ``writev``, the reader
        restores the exact byte stream."""
        payload = b"".join(chunks)
        sink = make_sink(vectored)
        writer = AdaptiveBlockWriter(
            sink,
            block_size=block_size,
            epoch_seconds=epoch_seconds,
            clock=SteppingClock(clock_step),
        )
        for chunk in chunks:
            writer.write(chunk)
        writer.close()

        assert b"".join(BlockReader(io.BytesIO(sink.getvalue()))) == payload

    @given(
        chunks=chunked_payload(),
        block_size=st.integers(min_value=16, max_value=2048),
    )
    @settings(max_examples=80, deadline=None)
    def test_bytes_in_accounting_exact(self, chunks, block_size):
        payload = b"".join(chunks)
        writer = AdaptiveBlockWriter(
            io.BytesIO(), block_size=block_size, clock=SteppingClock(0.01)
        )
        for chunk in chunks:
            writer.write(chunk)
        writer.close()
        assert writer.bytes_in == len(payload)

    @given(
        chunks=chunked_payload(),
        level=st.integers(min_value=0, max_value=3),
        block_size=st.integers(min_value=16, max_value=2048),
        vectored=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_static_writer_roundtrip(self, chunks, level, block_size, vectored):
        payload = b"".join(chunks)
        sink = make_sink(vectored)
        writer = StaticBlockWriter(sink, level, block_size=block_size)
        for chunk in chunks:
            writer.write(chunk)
        writer.close()
        assert b"".join(BlockReader(io.BytesIO(sink.getvalue()))) == payload

    @given(
        chunks=chunked_payload(),
        level=st.integers(min_value=0, max_value=3),
        block_size=st.integers(min_value=1, max_value=2048),
        vectored=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_adaptive_held_at_a_level_writes_the_static_bytes(
        self, chunks, level, block_size, vectored
    ):
        """An adaptive writer whose first epoch never ends codes every
        block at its initial level, so its stream is the static
        writer's at that level, byte for byte — and, on a vectored
        sink, the same bytes a plain file gets."""
        adaptive_sink, static_sink = make_sink(vectored), io.BytesIO()
        adaptive = AdaptiveBlockWriter(
            adaptive_sink,
            block_size=block_size,
            initial_level=level,
            clock=lambda: 0.0,
        )
        static = StaticBlockWriter(static_sink, level, block_size=block_size)
        for writer in (adaptive, static):
            for chunk in chunks:
                writer.write(chunk)
            writer.close()
        assert not adaptive.controller.trace
        assert adaptive_sink.getvalue() == static_sink.getvalue()

    @given(chunks=chunked_payload())
    @settings(max_examples=60, deadline=None)
    def test_wire_overhead_bounded(self, chunks):
        """With the stored fallback, the framed stream never exceeds
        the payload by more than one header per block."""
        payload = b"".join(chunks)
        sink = io.BytesIO()
        writer = AdaptiveBlockWriter(
            sink, block_size=256, clock=SteppingClock(0.05), epoch_seconds=0.1
        )
        for chunk in chunks:
            writer.write(chunk)
        writer.close()
        from repro.codecs import HEADER_SIZE

        max_total = len(payload) + HEADER_SIZE * max(1, writer.blocks_written)
        assert writer.bytes_out <= max_total
