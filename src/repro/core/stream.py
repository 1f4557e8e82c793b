"""Adaptive compression streams over real byte sinks.

"Similar to existing approaches we assume our adaptive compression
module to be placed between the application and the respective I/O
layer.  Instead of passing the data right to the I/O layer it is first
intercepted by the adaptive compression module which, if considered
beneficial, compresses the data according to a specific compression
level." (Section III-A)

:class:`StaticBlockWriter` is the block layer's one writer for any
binary file-like sink (socket ``makefile``, file, pipe): it buffers
application bytes, carves them into self-contained blocks and frames
each at one level.  :class:`AdaptiveBlockWriter` is that module: the
same writer, with the level re-decided every epoch by the paper's
controller.  The receiver side needs no adaptivity at all — every
framed block names its codec — so plain
:class:`~repro.codecs.block.BlockReader` decodes the stream.
"""

from __future__ import annotations

import time
from typing import BinaryIO, Callable, Optional

from ..codecs.block import DEFAULT_BLOCK_SIZE, MAX_BLOCK_LEN, BlockData
from ..telemetry.events import BUS, TransferProgress
from .controller import AdaptiveController
from .decision import DEFAULT_ALPHA, DEFAULT_EPOCH_SECONDS
from .levels import CompressionLevelTable, default_level_table
from .pipeline import make_block_encoder


class StaticBlockWriter:
    """Write application bytes as framed blocks at one fixed level.

    Implements Table II's NO/LIGHT/MEDIUM/HEAVY baselines on the real
    I/O path.  Application data is buffered into blocks of
    ``block_size`` (the paper's 128 KB), each compressed with the
    level's codec and framed self-contained.  ``block_size`` must lie
    in ``1..MAX_BLOCK_LEN``, the bound every reader enforces, so any
    stream a writer accepts can be read back.

    ``workers`` > 1 compresses blocks on a thread pipeline
    (:class:`~repro.core.pipeline.ParallelBlockEncoder`) while keeping
    the wire stream byte-identical to the serial path.
    """

    #: Telemetry source label of the writer's encoder.
    _source = "static-stream"

    def __init__(
        self,
        sink: BinaryIO,
        level: int,
        levels: Optional[CompressionLevelTable] = None,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        workers: int = 1,
    ) -> None:
        if not 1 <= block_size <= MAX_BLOCK_LEN:
            raise ValueError(
                f"block_size must be in 1..{MAX_BLOCK_LEN}, got {block_size}"
            )
        self.levels = levels or default_level_table()
        if not 0 <= level < len(self.levels):
            raise ValueError(f"level {level} out of range")
        self._level = level
        self.block_size = block_size
        self._buffer = bytearray()
        self._closed = False
        self._writer = make_block_encoder(sink, workers=workers, source=self._source)

    # -- statistics -------------------------------------------------

    @property
    def level(self) -> int:
        """The level that codes the next block."""
        return self._level

    @property
    def bytes_in(self) -> int:
        """Application bytes accepted (including still-buffered ones)."""
        return self._writer.bytes_in + len(self._buffer)

    @property
    def bytes_out(self) -> int:
        """Framed bytes handed to the sink."""
        return self._writer.bytes_out

    @property
    def blocks_written(self) -> int:
        return self._writer.blocks_written

    # -- writing ----------------------------------------------------

    def write(self, data: bytes) -> int:
        """Accept application bytes; emit full blocks as they fill.

        With the serial encoder every frame this call carves is on the
        sink when it returns, in one ``writev`` on a vectored sink.
        """
        if self._closed:
            raise ValueError("writer is closed")
        self._buffer.extend(data)
        buffered = len(self._buffer)
        if buffered >= self.block_size:
            # Detach all full blocks as one immutable snapshot, then
            # emit zero-copy views of it.  One copy total (the detach),
            # versus copy-per-block + quadratic del with the old
            # ``bytes(buf[:n]); del buf[:n]`` slicing — and the views
            # stay valid for queued frames and in-flight pipeline
            # workers because the snapshot is immutable and referenced
            # by each view.
            cut = buffered - (buffered % self.block_size)
            carved = bytes(memoryview(self._buffer)[:cut])
            del self._buffer[:cut]
            with memoryview(carved) as view:
                for offset in range(0, cut, self.block_size):
                    self._emit(view[offset : offset + self.block_size])
            self._writer.write_ready()
        return len(data)

    def _emit(self, block: BlockData) -> None:
        """Queue one carved block, framed at the current level."""
        self._writer.queue_block(block, self.levels.codec(self.level))

    def flush(self) -> None:
        """Emit any buffered partial block and drain in-flight frames."""
        if self._buffer:
            block = bytes(self._buffer)
            self._buffer.clear()
            self._emit(block)
        self._writer.flush()

    def close(self) -> None:
        """Flush, stop any pipeline workers, and mark closed.

        The sink itself is left to the caller.
        """
        if not self._closed:
            try:
                self.flush()
            finally:
                self._writer.close()
                self._closed = True

    def abort(self) -> None:
        """Discard buffered data and stop workers without writing.

        Error-path teardown: used when the sink is already broken, so
        flushing would raise a secondary error or block.  Idempotent.
        """
        self._buffer.clear()
        self._writer.abort()
        self._closed = True

    def __enter__(self) -> "StaticBlockWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AdaptiveBlockWriter(StaticBlockWriter):
    """Write application bytes as adaptively compressed framed blocks.

    A :class:`StaticBlockWriter` whose level the controller re-decides
    every ``epoch_seconds`` of clock time, based on the achieved
    application data rate.  ``workers`` behaves as there; with either
    encoder the controller records uncompressed bytes when a block is
    submitted, and a level switch takes effect on subsequently
    *submitted* blocks.

    The clock is injectable so tests can drive time deterministically.
    """

    _source = "adaptive-stream"

    def __init__(
        self,
        sink: BinaryIO,
        levels: Optional[CompressionLevelTable] = None,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        epoch_seconds: float = DEFAULT_EPOCH_SECONDS,
        alpha: float = DEFAULT_ALPHA,
        initial_level: int = 0,
        workers: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # The controller checks its own arguments before the encoder
        # starts, so a bad epoch length cannot leak pipeline workers.
        levels = levels or default_level_table()
        self._clock = clock
        self.controller = AdaptiveController(
            n_levels=len(levels),
            epoch_seconds=epoch_seconds,
            alpha=alpha,
            initial_level=initial_level,
            clock_start=clock(),
        )
        super().__init__(
            sink,
            initial_level,
            levels,
            block_size=block_size,
            workers=workers,
        )

    @property
    def level(self) -> int:
        """The controller's current level, which codes the next block."""
        return self.controller.current_level

    @property
    def current_level(self) -> int:
        return self.level

    @property
    def current_level_name(self) -> str:
        return self.levels.name(self.level)

    def _emit(self, block: BlockData) -> None:
        super()._emit(block)
        # The application data rate counts *uncompressed* bytes — "the
        # data rate experienced by the application before compressing
        # the data" (Section I).  This happens at submission, so the
        # controller sees bytes as the application hands them over, not
        # when frames reach the sink.
        self.controller.record(block.nbytes if isinstance(block, memoryview) else len(block))
        record = self.controller.poll(self._clock())
        # Per-epoch stream progress: cumulative bytes in/out and the
        # achieved wire ratio, emitted only at epoch boundaries so the
        # per-block hot path stays event-free.
        if record is not None and BUS.active:
            bytes_in = self._writer.bytes_in
            bytes_out = self._writer.bytes_out
            BUS.publish(
                TransferProgress(
                    ts=record.end,
                    source=self._source,
                    bytes_in=bytes_in,
                    bytes_out=bytes_out,
                    ratio=bytes_out / bytes_in if bytes_in else 1.0,
                )
            )
