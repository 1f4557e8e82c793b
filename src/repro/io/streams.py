"""File-level conveniences: (de)compress whole files adaptively.

Small user-facing utilities built on the block-stream layer — the
"file channel" use case outside Nephele: archive a file with the
adaptive scheme, restore it, verify integrity.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..codecs.block import DEFAULT_BLOCK_SIZE
from ..core.buffers import BufferPool
from ..core.levels import CompressionLevelTable
from ..core.pipeline import make_block_decoder
from ..core.stream import AdaptiveBlockWriter, StaticBlockWriter


@dataclass(frozen=True)
class FileCompressionResult:
    input_bytes: int
    output_bytes: int
    wall_seconds: float

    @property
    def ratio(self) -> float:
        if self.input_bytes == 0:
            return 1.0
        return self.output_bytes / self.input_bytes


def compress_file(
    src_path: str,
    dst_path: str,
    *,
    levels: Optional[CompressionLevelTable] = None,
    static_level: Optional[int] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    epoch_seconds: float = 0.25,
    alpha: float = 0.2,
    workers: int = 1,
    clock: Callable[[], float] = time.monotonic,
) -> FileCompressionResult:
    """Compress ``src_path`` into a framed block stream at ``dst_path``.

    ``static_level=None`` uses the adaptive scheme; the level then
    tracks the *throughput* achieved on this machine for this data,
    exactly like the channel integration.  ``workers`` > 1 compresses
    blocks on a thread pipeline with byte-identical output.  Arguments
    the writer refuses create no ``dst_path``, and a pack that fails
    after it is created removes the partial file.
    """
    t0 = clock()
    with open(src_path, "rb") as src:
        # The writer checks its arguments before the destination exists,
        # so a refused pack leaves no file; it writes through ``sink``.
        sink = _Sink()
        if static_level is None:
            writer = AdaptiveBlockWriter(
                sink,
                levels,
                block_size=block_size,
                epoch_seconds=epoch_seconds,
                alpha=alpha,
                workers=workers,
                clock=clock,
            )
        else:
            writer = StaticBlockWriter(
                sink,
                static_level,
                levels,
                block_size=block_size,
                workers=workers,
            )
        try:
            with open(dst_path, "wb") as dst:
                sink.write = dst.write
                while True:
                    chunk = src.read(block_size)
                    if not chunk:
                        break
                    writer.write(chunk)
                writer.close()
        except BaseException:
            writer.abort()
            if sink.write is not None:  # a partial destination exists
                os.unlink(dst_path)
            raise
    return FileCompressionResult(
        input_bytes=writer.bytes_in,
        output_bytes=os.path.getsize(dst_path),
        wall_seconds=clock() - t0,
    )


class _Sink:
    """The writer's sink, its ``write`` bound to the destination once open."""

    write: Optional[Callable[[bytes], int]] = None


def decompress_file(src_path: str, dst_path: str, *, workers: int = 1) -> int:
    """Restore a block stream produced by :func:`compress_file`.

    Returns the number of bytes written.  No configuration is needed:
    every block names its own codec.  ``workers`` > 1 decompresses on a
    :class:`~repro.core.pipeline.ParallelBlockDecoder` — byte-identical
    output, decode spread across cores.
    """
    total = 0
    with open(src_path, "rb") as src, open(dst_path, "wb") as dst:
        decoder = make_block_decoder(
            src,
            workers=workers,
            pool=BufferPool(),
            event_source="file-decode",
        )
        try:
            for block in decoder:
                dst.write(block)
                total += len(block)
        finally:
            decoder.close()
    return total
