"""Channel implementations: in-memory, file, and network.

"Currently, Nephele supports three different types of communication
channels: file, TCP network, and in-memory channels.  For our initial
prototype we integrated our adaptive compression scheme into Nephele's
file and network channels.  The implementation is completely
transparent to the tasks." (Section III-B)

A channel has a writer end (``write_record``/``close_write``) and a
reader end (``read_record`` returning ``None`` at end-of-stream).  File
and network channels route their byte stream through the block-framing
compression layer — statically or adaptively, per their
:class:`ChannelSpec`; tasks never see a difference.  ``dispose``
releases every socket and file object a channel holds, whatever state
its tasks left it in; the execution engine calls it after every run.
"""

from __future__ import annotations

import enum
import os
import queue
import socket
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from ..codecs.block import DEFAULT_BLOCK_SIZE, BlockReader
from ..core.decision import DEFAULT_ALPHA, DEFAULT_EPOCH_SECONDS
from ..core.levels import CompressionLevelTable, default_level_table
from ..core.stream import AdaptiveBlockWriter, StaticBlockWriter
from ..telemetry.events import BUS, TransferProgress
from .records import RecordDecoder, encode_record


def _close_all(*handles) -> None:
    """Close every handle given, even when closing an earlier one fails."""
    for handle in handles:
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass  # a broken peer: the handle is closed all the same


def _emit_channel_progress(writer, source: str) -> None:
    """Publish a channel's final byte counts (write side just closed)."""
    bytes_in = writer.bytes_in
    bytes_out = writer.bytes_out
    BUS.publish(
        TransferProgress(
            ts=BUS.now(),
            source=source,
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            ratio=bytes_out / bytes_in if bytes_in else 1.0,
            done=True,
        )
    )


class ChannelType(enum.Enum):
    """Nephele's three channel transports (Section III-B)."""

    IN_MEMORY = "in-memory"
    FILE = "file"
    NETWORK = "network"


class CompressionMode(enum.Enum):
    """How a channel's byte stream is compressed."""

    #: No compression layer at all (also the only mode for in-memory).
    OFF = "off"
    #: Fixed level for the channel's lifetime.
    STATIC = "static"
    #: The paper's adaptive scheme.
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class ChannelSpec:
    """Everything needed to build a channel between two tasks."""

    channel_type: ChannelType = ChannelType.IN_MEMORY
    compression: CompressionMode = CompressionMode.OFF
    static_level: int = 0
    block_size: int = DEFAULT_BLOCK_SIZE
    epoch_seconds: float = DEFAULT_EPOCH_SECONDS
    alpha: float = DEFAULT_ALPHA
    #: Bounded buffering between writer and reader (records for
    #: in-memory, bytes-ish for network); provides backpressure.
    buffer_records: int = 1024

    def __post_init__(self) -> None:
        if (
            self.channel_type is ChannelType.IN_MEMORY
            and self.compression is not CompressionMode.OFF
        ):
            raise ValueError(
                "compression is integrated into file and network channels only"
            )


class ChannelClosedError(Exception):
    """Write attempted on a closed channel."""


class Channel:
    """Common interface; see subclasses."""

    spec: ChannelSpec

    def write_record(self, record: bytes) -> None:
        raise NotImplementedError

    def close_write(self) -> None:
        raise NotImplementedError

    def read_record(self) -> Optional[bytes]:
        raise NotImplementedError

    def close_read(self) -> None:
        """The reader gives up: a writer blocked on it fails at once.

        The execution engine calls this for the inputs of a task that
        failed.  A file channel's writer never waits on its reader, so
        the default does nothing.  Idempotent.
        """

    def dispose(self) -> None:
        """Release every socket and file object.  Idempotent."""

    def __iter__(self):
        while True:
            record = self.read_record()
            if record is None:
                return
            yield record


class InMemoryChannel(Channel):
    """Bounded queue of records; no compression (paper §III-B)."""

    _EOF = object()

    def __init__(self, spec: Optional[ChannelSpec] = None) -> None:
        self.spec = spec or ChannelSpec(ChannelType.IN_MEMORY)
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.spec.buffer_records)
        self._write_closed = False
        self._read_closed = False

    def write_record(self, record: bytes) -> None:
        if self._write_closed:
            raise ChannelClosedError("channel closed for writing")
        if self._read_closed:
            raise ChannelClosedError("channel closed for reading")
        self._queue.put(bytes(record))

    def close_write(self) -> None:
        if not self._write_closed:
            self._write_closed = True
            if not self._read_closed:
                self._queue.put(self._EOF)

    def close_read(self) -> None:
        """Refuse further records and drop the buffered ones.

        The flag is set before the queue drains, so a writer blocked in
        ``put`` wakes up, and its next record is refused.
        """
        self._read_closed = True
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                return

    def read_record(self) -> Optional[bytes]:
        item = self._queue.get()
        if item is self._EOF:
            self._queue.put(self._EOF)  # keep EOF sticky for re-reads
            return None
        return item


def _make_block_writer(
    sink,
    spec: ChannelSpec,
    levels: Optional[CompressionLevelTable],
    clock,
):
    levels = levels or default_level_table()
    if spec.compression is CompressionMode.ADAPTIVE:
        return AdaptiveBlockWriter(
            sink,
            levels,
            block_size=spec.block_size,
            epoch_seconds=spec.epoch_seconds,
            alpha=spec.alpha,
            clock=clock,
        )
    if spec.compression is CompressionMode.STATIC:
        return StaticBlockWriter(sink, spec.static_level, levels, block_size=spec.block_size)
    return StaticBlockWriter(sink, 0, levels, block_size=spec.block_size)


class FileChannel(Channel):
    """Spill records through an on-disk file, block-compressed.

    Nephele's file channels fully decouple producer and consumer: the
    reader may start only after the writer has closed (enforced here),
    which is also why they are the natural place for compression — the
    whole stream is on disk either way.
    """

    def __init__(
        self,
        spec: Optional[ChannelSpec] = None,
        path: Optional[str] = None,
        levels: Optional[CompressionLevelTable] = None,
        clock=time.monotonic,
    ) -> None:
        self.spec = spec or ChannelSpec(ChannelType.FILE)
        if path is None:
            fd, path = tempfile.mkstemp(prefix="nephele-file-channel-")
            os.close(fd)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self._sink = open(path, "wb")
        self._writer = _make_block_writer(self._sink, self.spec, levels, clock)
        self._write_closed = False
        self._reader: Optional[BlockReader] = None
        self._decoder = RecordDecoder()
        self._source = None

    @property
    def block_writer(self):
        """The underlying (possibly adaptive) block writer, for stats."""
        return self._writer

    def write_record(self, record: bytes) -> None:
        if self._write_closed:
            raise ChannelClosedError("file channel closed for writing")
        self._writer.write(encode_record(record))

    def close_write(self) -> None:
        if self._write_closed:
            return
        self._writer.close()
        if BUS.active:
            _emit_channel_progress(self._writer, "file-channel")
        self._sink.flush()
        self._sink.close()
        self._write_closed = True

    def read_record(self) -> Optional[bytes]:
        if not self._write_closed:
            raise RuntimeError(
                "file channel must be closed for writing before reading"
            )
        if self._reader is None:
            self._source = open(self.path, "rb")
            self._reader = BlockReader(self._source)
        while True:
            record = self._decoder.next_record()
            if record is not None:
                return record
            block = self._reader.read_block()
            if block is None:
                self._decoder.assert_empty()
                return None
            self._decoder.feed(block)

    def dispose(self) -> None:
        """Close both file objects and delete an owned backing file.
        Idempotent."""
        _close_all(self._sink, self._source)
        if self._owns_file and os.path.exists(self.path):
            os.unlink(self.path)


class NetworkChannel(Channel):
    """Records over a real (local) TCP socket pair, block-compressed.

    Uses an actual ``socket.socketpair`` so the bytes traverse the
    kernel exactly as a TCP network channel's would; the adaptive
    writer observes genuine backpressure through the socket buffers.
    """

    def __init__(
        self,
        spec: Optional[ChannelSpec] = None,
        levels: Optional[CompressionLevelTable] = None,
        clock=time.monotonic,
    ) -> None:
        self.spec = spec or ChannelSpec(ChannelType.NETWORK)
        self._write_sock, self._read_sock = socket.socketpair()
        self._sink = self._write_sock.makefile("wb")
        self._source = self._read_sock.makefile("rb")
        self._writer = _make_block_writer(self._sink, self.spec, levels, clock)
        self._reader = BlockReader(self._source)
        self._decoder = RecordDecoder()
        self._write_closed = False
        self._read_closed = False

    @property
    def block_writer(self):
        return self._writer

    def write_record(self, record: bytes) -> None:
        if self._write_closed:
            raise ChannelClosedError("network channel closed for writing")
        self._writer.write(encode_record(record))

    def close_write(self) -> None:
        if self._write_closed:
            return
        self._writer.close()
        if BUS.active:
            _emit_channel_progress(self._writer, "network-channel")
        self._sink.flush()
        self._sink.close()
        self._write_sock.close()
        self._write_closed = True

    def read_record(self) -> Optional[bytes]:
        while True:
            record = self._decoder.next_record()
            if record is not None:
                return record
            block = self._reader.read_block()
            if block is None:
                self._decoder.assert_empty()
                self.close_read()
                return None
            self._decoder.feed(block)

    def close_read(self) -> None:
        """Close the read end; a writer blocked in ``send`` gets EPIPE."""
        if not self._read_closed:
            _close_all(self._source, self._read_sock)
            self._read_closed = True

    def dispose(self) -> None:
        """Close both socket ends and their file objects.  Idempotent.

        The sockets are shut down first: a task still blocked on one
        wakes up, so closing its file object never waits for that task.
        """
        for sock in (self._read_sock, self._write_sock):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed
        _close_all(self._source, self._read_sock, self._sink, self._write_sock)
        self._read_closed = self._write_closed = True


def build_channel(spec: ChannelSpec, **kwargs) -> Channel:
    """Channel factory used by the execution engine."""
    if spec.channel_type is ChannelType.IN_MEMORY:
        return InMemoryChannel(spec)
    if spec.channel_type is ChannelType.FILE:
        return FileChannel(spec, **kwargs)
    if spec.channel_type is ChannelType.NETWORK:
        return NetworkChannel(spec, **kwargs)
    raise ValueError(f"unknown channel type {spec.channel_type}")
