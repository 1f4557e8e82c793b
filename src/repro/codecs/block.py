"""Self-contained block framing.

Nephele "internally buffers data that is written to its file or network
channel in memory blocks of at most 128 KB size ... Each of these blocks
is passed independently to the [codec].  This means each block contains
all the information to be decompressed by the receiver, including meta
information about compression algorithm" (Section III-B).

Frame layout (little-endian)::

    offset  size  field
    0       2     magic  b"AB"
    2       1     format version (1)
    3       1     codec id
    4       1     flags
    5       3     reserved (zero)
    8       4     uncompressed length
    12      4     compressed payload length
    16      4     CRC32 of compressed payload
    20      n     payload

The CRC covers the payload as stored, so corruption is detected before
the codec runs.  ``FLAG_STORED_FALLBACK`` records that compression was
attempted but produced output not smaller than the input, in which case
the payload is stored raw under the null codec id.
"""

from __future__ import annotations

import struct
import threading
import zlib
from typing import BinaryIO, Iterator, List, NamedTuple, Optional, Union

from ..telemetry.events import BUS, BlockCompressed
from .base import Codec
from .errors import CorruptBlockError, OversizedBlockError, TruncatedStreamError
from .registry import DEFAULT_REGISTRY, CodecRegistry

MAGIC = b"AB"
FORMAT_VERSION = 1
HEADER = struct.Struct("<2sBBB3xIII")
HEADER_SIZE = HEADER.size  # 20 bytes

#: Paper's default block payload size.
DEFAULT_BLOCK_SIZE = 128 * 1024

FLAG_STORED_FALLBACK = 0x01

#: Sanity ceiling on header length fields: 16x the paper's block size.
#: It is also the largest block size a writer accepts, and a payload is
#: never longer than its block (the stored fallback sees to that), so
#: any larger claim is treated as corruption before a single byte is
#: allocated for it.
MAX_BLOCK_LEN = 16 * DEFAULT_BLOCK_SIZE

#: Block payloads are accepted as any C-contiguous byte buffer, so the
#: stream layer can hand us zero-copy ``memoryview`` slices of its
#: write buffer instead of materialising a ``bytes`` copy per block.
BlockData = Union[bytes, bytearray, memoryview]


def _nbytes(data: BlockData) -> int:
    """Byte length of a block payload buffer (memoryview-safe)."""
    return data.nbytes if isinstance(data, memoryview) else len(data)


class BlockHeader(NamedTuple):
    """Decoded block frame header, its fields in wire order."""

    codec_id: int
    flags: int
    uncompressed_len: int
    compressed_len: int
    crc32: int

    @property
    def stored_fallback(self) -> bool:
        return bool(self.flags & FLAG_STORED_FALLBACK)


class EncodedBlock(NamedTuple):
    """A fully framed block plus its bookkeeping numbers.

    ``frame`` is assembled in a single preallocated ``bytearray``,
    never re-copied into an immutable ``bytes``; treat it as read-only.
    """

    frame: bytearray
    header: BlockHeader

    @property
    def frame_len(self) -> int:
        return len(self.frame)

    @property
    def ratio(self) -> float:
        """Compressed/uncompressed size ratio (1.0 == incompressible)."""
        if self.header.uncompressed_len == 0:
            return 1.0
        return self.header.compressed_len / self.header.uncompressed_len


class EncodedParts(NamedTuple):
    """A framed block kept as (header bytes, payload) — never assembled.

    The vectored-I/O counterpart of :class:`EncodedBlock`: a sink with
    ``writev`` (e.g. :class:`~repro.io.sockets.VectoredSocketWriter`)
    takes both parts in one call, so the payload is never copied into
    a contiguous frame at all.  Concatenating ``header_bytes +
    payload`` yields exactly the bytes of the corresponding
    :class:`EncodedBlock.frame`.
    """

    header: BlockHeader
    header_bytes: bytes
    payload: BlockData

    @property
    def frame_len(self) -> int:
        return HEADER_SIZE + self.header.compressed_len

    @property
    def ratio(self) -> float:
        """Compressed/uncompressed size ratio (1.0 == incompressible)."""
        if self.header.uncompressed_len == 0:
            return 1.0
        return self.header.compressed_len / self.header.uncompressed_len


def _compress_payload(data: BlockData, codec: Codec) -> tuple:
    """Shared compress + stored-fallback step: (header, payload)."""
    data_len = _nbytes(data)
    if BUS.active:
        t0 = BUS.now()
        payload = codec.compress(data)
        BUS.publish(
            BlockCompressed(
                ts=BUS.now(),
                codec=codec.name,
                direction="compress",
                uncompressed_bytes=data_len,
                compressed_bytes=_nbytes(payload),
                seconds=BUS.now() - t0,
            )
        )
    else:
        payload = codec.compress(data)
    codec_id = codec.codec_id
    flags = 0
    if codec_id != 0 and _nbytes(payload) >= data_len:
        payload = data
        codec_id = 0
        flags |= FLAG_STORED_FALLBACK
    header = BlockHeader(
        codec_id, flags, data_len, _nbytes(payload), zlib.crc32(payload) & 0xFFFFFFFF
    )
    return header, payload


def frame_payload(
    header: BlockHeader,
    payload: BlockData,
    *,
    vectored: bool = False,
) -> Union[EncodedBlock, EncodedParts]:
    """Frame a finished ``(header, payload)`` pair — the one header packer.

    ``vectored=True`` keeps the two parts separate
    (:class:`EncodedParts`); the payload is referenced, never copied.
    Otherwise the frame is assembled in one preallocated buffer (header
    packed in place, payload copied in exactly once).  Every encoder
    funnels through here, whichever thread or process ran the codec, so
    the wire bytes cannot drift between paths.
    """
    if vectored:
        return EncodedParts(
            header, HEADER.pack(MAGIC, FORMAT_VERSION, *header), payload
        )
    frame = bytearray(HEADER_SIZE + header.compressed_len)
    HEADER.pack_into(frame, 0, MAGIC, FORMAT_VERSION, *header)
    frame[HEADER_SIZE:] = payload
    return EncodedBlock(frame, header)


def encode_block(data: BlockData, codec: Codec) -> EncodedBlock:
    """Compress ``data`` with ``codec`` and wrap it in a frame.

    ``data`` may be ``bytes``, a ``bytearray`` or a C-contiguous
    ``memoryview`` — the stream layer passes zero-copy views of its
    write buffer.  The input is never copied to an intermediate object,
    so a ``memoryview`` input costs a single payload copy total (into
    the frame, see :func:`frame_payload`).

    If the codec expands the data (or saves nothing), the block is
    stored raw (codec id 0) with ``FLAG_STORED_FALLBACK``
    so that incompressible data never costs more than the 20-byte
    header.  The stored fallback borrows the input buffer directly — no
    defensive copy is taken.
    """
    header, payload = _compress_payload(data, codec)
    return frame_payload(header, payload)


def encode_block_parts(data: BlockData, codec: Codec) -> EncodedParts:
    """Compress ``data`` but keep header and payload as separate parts.

    Same compression, fallback and CRC semantics as
    :func:`encode_block`; the only difference is that no contiguous
    frame is assembled, so the payload is **zero-copy** end to end when
    the sink supports vectored writes (``header_bytes`` and the payload
    go out in one ``sendmsg``).  Wire bytes are identical to the
    assembled frame.
    """
    header, payload = _compress_payload(data, codec)
    return frame_payload(header, payload, vectored=True)


def write_frames(
    sink: BinaryIO, blocks: List[Union[EncodedBlock, EncodedParts]]
) -> int:
    """Put finished frames on ``sink`` in order; returns their framed bytes.

    A vectored sink (one with ``writev``) takes every frame's header and
    payload, as :class:`EncodedParts`, in one call; any other sink takes
    each assembled :class:`EncodedBlock` frame through ``write``.
    """
    writev = getattr(sink, "writev", None)
    if writev is not None:
        writev([part for b in blocks for part in (b.header_bytes, b.payload)])
    else:
        for block in blocks:
            sink.write(block.frame)
    return sum(block.frame_len for block in blocks)


def decode_header(raw: BlockData, *, max_len: Optional[int] = None) -> BlockHeader:
    """Parse and validate a 20-byte frame header (any byte buffer).

    ``max_len`` bounds both length fields (default
    :data:`MAX_BLOCK_LEN`); a header claiming more raises
    :class:`~repro.codecs.errors.OversizedBlockError` so corrupted
    length bytes can never drive a multi-GB allocation downstream.
    No writer emits a longer block: their block size is capped at
    :data:`MAX_BLOCK_LEN` and a payload is never longer than its block.
    """
    if max_len is None:
        max_len = MAX_BLOCK_LEN
    if _nbytes(raw) < HEADER_SIZE:
        raise TruncatedStreamError(
            f"need {HEADER_SIZE} header bytes, got {len(raw)}"
        )
    magic, version, codec_id, flags, ulen, clen, crc = HEADER.unpack(raw[:HEADER_SIZE])
    if magic != MAGIC:
        raise CorruptBlockError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptBlockError(f"unsupported format version {version}")
    if ulen > max_len:
        raise OversizedBlockError("uncompressed_len", ulen, max_len)
    if clen > max_len:
        raise OversizedBlockError("compressed_len", clen, max_len)
    return BlockHeader(codec_id, flags, ulen, clen, crc)


def verify_crc(header: BlockHeader, payload: BlockData) -> bool:
    """Does ``payload`` match the header's CRC32?

    Exposed so frame fetchers (resync scanning, the parallel decode
    pipeline) can validate payload integrity up front and let
    :func:`decode_payload` skip the re-check (``check_crc=False``).
    """
    return (zlib.crc32(payload) & 0xFFFFFFFF) == header.crc32


#: Reflected CRC-32 polynomial (the one ``zlib.crc32`` uses).
_CRC32_POLY = 0xEDB88320

#: ``_CRC32_ZEROS[k]``: four byte-indexed tables of the linear map that
#: advances a CRC-32 register over ``2**k`` zero bytes.  Built on first
#: use, one power of two at a time under the lock, and kept for the
#: process's life; readers index it without the lock.
_CRC32_ZEROS: list = []
_CRC32_ZEROS_LOCK = threading.Lock()


def _crc32_advance(tables: tuple, crc: int) -> int:
    t0, t1, t2, t3 = tables
    return (
        t0[crc & 0xFF] ^ t1[(crc >> 8) & 0xFF] ^ t2[(crc >> 16) & 0xFF] ^ t3[crc >> 24]
    )


def _crc32_zeros(k: int) -> tuple:
    """The byte-sliced tables advancing a register over ``2**k`` zero bytes."""
    if k < len(_CRC32_ZEROS):
        return _CRC32_ZEROS[k]
    with _CRC32_ZEROS_LOCK:
        while len(_CRC32_ZEROS) <= k:
            if _CRC32_ZEROS:
                # Squaring: the previous power's advance applied twice.
                prev = _CRC32_ZEROS[-1]
                columns = [
                    _crc32_advance(prev, prev[bit >> 3][1 << (bit & 7)])
                    for bit in range(32)
                ]
            else:
                columns = []
                for bit in range(32):
                    crc = 1 << bit
                    for _ in range(8):
                        crc = (crc >> 1) ^ (_CRC32_POLY if crc & 1 else 0)
                    columns.append(crc)
            tables = []
            for byte in range(4):
                table = [0] * 256
                for value in range(1, 256):
                    low = value & -value
                    bit = 8 * byte + low.bit_length() - 1
                    table[value] = table[value ^ low] ^ columns[bit]
                tables.append(table)
            _CRC32_ZEROS.append(tuple(tables))
    return _CRC32_ZEROS[k]


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of ``a + b`` from ``crc1 = crc32(a)``, ``crc2 = crc32(b)``
    and ``len2 = len(b)``, without reading either buffer.

    Equal to ``zlib.crc32(b, crc1)``.  This is zlib's
    ``crc32_combine``, done as four table lookups per set bit of
    ``len2``: a power-of-two block costs one step, where a CRC pass
    reads every byte.  A verified frame's header CRC folds into a
    running plaintext CRC this way.
    """
    while len2:
        low = len2 & -len2
        crc1 = _crc32_advance(_crc32_zeros(low.bit_length() - 1), crc1)
        len2 ^= low
    return crc1 ^ crc2


def decode_payload(
    header: BlockHeader,
    payload: BlockData,
    registry: CodecRegistry = DEFAULT_REGISTRY,
    *,
    check_crc: bool = True,
) -> bytes:
    """CRC-check and decompress one frame's payload.

    The payload may be any byte buffer (``BlockReader`` passes its
    preallocated read buffer directly); it is handed to the codec
    without copying.  ``check_crc=False`` skips the CRC pass for
    callers that already ran :func:`verify_crc` on this payload (the
    parallel decode pipeline's fetcher does, so its workers don't pay
    the checksum twice).

    Codec id 0 is the wire format's identity transform (the NO level
    and the stored fallback both use it), so stored payloads bypass the
    codec dispatch: the payload bytes are materialised **exactly once**
    — and not at all when the caller already holds immutable ``bytes``.
    """
    if check_crc and not verify_crc(header, payload):
        raise CorruptBlockError("payload CRC mismatch")
    if header.codec_id == 0:
        # Identity by wire-format contract: FLAG_STORED_FALLBACK frames
        # are written raw under codec id 0, so no registry lookup and no
        # slice-then-copy — one bytes() materialisation at most.
        data = payload if isinstance(payload, bytes) else bytes(payload)
        if BUS.active:
            BUS.publish(
                BlockCompressed(
                    ts=BUS.now(),
                    codec=registry.get(0).name,
                    direction="decompress",
                    uncompressed_bytes=len(data),
                    compressed_bytes=_nbytes(payload),
                    seconds=0.0,
                )
            )
    elif BUS.active:
        codec = registry.get(header.codec_id)
        t0 = BUS.now()
        data = codec.decompress(payload)
        BUS.publish(
            BlockCompressed(
                ts=BUS.now(),
                codec=codec.name,
                direction="decompress",
                uncompressed_bytes=len(data),
                compressed_bytes=_nbytes(payload),
                seconds=BUS.now() - t0,
            )
        )
    else:
        data = registry.get(header.codec_id).decompress(payload)
    if len(data) != header.uncompressed_len:
        raise CorruptBlockError(
            f"decompressed length {len(data)} != header claim "
            f"{header.uncompressed_len}"
        )
    return data


def decode_block(frame: BlockData, registry: CodecRegistry = DEFAULT_REGISTRY) -> bytes:
    """Decode one complete frame back to the original bytes."""
    header = decode_header(frame)
    with memoryview(frame) as view:
        payload = view[HEADER_SIZE : HEADER_SIZE + header.compressed_len]
        try:
            if len(payload) != header.compressed_len:
                raise TruncatedStreamError(
                    f"frame payload truncated: expected {header.compressed_len} "
                    f"bytes, got {len(payload)}"
                )
            return decode_payload(header, payload, registry)
        finally:
            payload.release()


class BlockWriter:
    """Write framed blocks to a binary file-like object.

    The codec may change between blocks — this is exactly how the
    adaptive scheme switches compression levels mid-stream.  A sink
    exposing ``writev(parts)`` (vectored writes, e.g.
    :class:`~repro.io.sockets.VectoredSocketWriter`) receives frames as
    separate header/payload parts — same wire bytes, one payload copy
    fewer — and every frame queued by :meth:`queue_block` goes out in
    one ``writev`` at :meth:`write_ready`.
    """

    def __init__(self, sink: BinaryIO) -> None:
        self._sink = sink
        self._vectored = getattr(sink, "writev", None) is not None
        #: Frames framed but not yet written, in order.
        self._queued: List[Union[EncodedBlock, EncodedParts]] = []
        self.blocks_written = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def write_block(
        self, data: BlockData, codec: Codec
    ) -> Union[EncodedBlock, EncodedParts]:
        """Frame one block and put it on the sink now."""
        block = self.queue_block(data, codec)
        self.write_ready()
        return block

    def queue_block(
        self, data: BlockData, codec: Codec
    ) -> Union[EncodedBlock, EncodedParts]:
        """Frame one block; it reaches the sink at :meth:`write_ready`.

        ``data`` must stay unchanged until then (the stored fallback and
        the null codec reference it).
        """
        if self._vectored:
            block = encode_block_parts(data, codec)
        else:
            block = encode_block(data, codec)
        self._queued.append(block)
        self.bytes_in += block.header.uncompressed_len
        return block

    def write_ready(self) -> None:
        """Put every queued frame on the sink (one ``writev`` if vectored)."""
        if self._queued:
            blocks, self._queued = self._queued, []
            self.bytes_out += write_frames(self._sink, blocks)
            self.blocks_written += len(blocks)

    def flush(self) -> None:
        """Write any queued frames; every block is then on the sink.

        Present so the serial writer and the threaded
        :class:`~repro.core.pipeline.ParallelBlockEncoder` share one
        interface (the parallel encoder drains in-flight blocks here).
        """
        self.write_ready()

    def close(self) -> None:
        """No-op counterpart of the parallel encoder's worker shutdown."""

    def abort(self) -> None:
        """Drop queued frames without writing them.

        The counterpart of the parallel encoder's error teardown: error
        paths call this instead of :meth:`close` so teardown never
        writes to a sink that is already known to be broken.
        """
        self._queued.clear()


class BlockReader:
    """Incrementally read framed blocks from a binary file-like object.

    Handles short reads (sockets) by looping until a full frame is
    available; distinguishes clean EOF (between frames) from truncation
    (mid-frame).  With a ``pool``
    (:class:`~repro.core.buffers.BufferPool`) the header lands in one
    persistent buffer and each payload in a reused pool slab, so steady
    -state decoding performs **zero per-block allocations** besides the
    decompressed output itself.
    """

    def __init__(
        self,
        source: BinaryIO,
        registry: CodecRegistry = DEFAULT_REGISTRY,
        *,
        pool: Optional[object] = None,
    ) -> None:
        self._registry = registry
        self._pool = pool
        # Scatter reads straight into our buffers: every source has
        # ``readinto`` (files, socket makefiles, SocketSource, BytesIO).
        self._readinto = source.readinto
        self._header_buf = bytearray(HEADER_SIZE)
        self._header_view = memoryview(self._header_buf)
        self.blocks_read = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def _readinto_exact(self, view: memoryview, *, allow_eof: bool) -> bool:
        """Fill ``view`` completely from the source.

        Returns ``False`` only when ``allow_eof`` is set and the stream
        ends *before the first byte* (clean EOF between frames); a
        stream that ends mid-read raises :class:`TruncatedStreamError`.
        """
        n = view.nbytes
        pos = 0
        while pos < n:
            got = self._readinto(view[pos:])
            if not got:
                break
            pos += got
        if pos < n:
            if pos == 0 and allow_eof:
                return False
            raise TruncatedStreamError(
                f"stream ended with {n - pos} of {n} bytes outstanding"
            )
        return True

    def _read_exact(self, n: int, *, allow_eof: bool) -> Optional[bytearray]:
        """Read exactly ``n`` bytes into one freshly allocated buffer."""
        buf = bytearray(n)
        with memoryview(buf) as view:
            if not self._readinto_exact(view, allow_eof=allow_eof):
                return None
        return buf

    def read_frame(self) -> Optional[tuple]:
        """Fetch the next raw ``(header, payload buffer)`` pair.

        ``None`` at clean EOF.  The payload is a
        :class:`~repro.core.buffers.PooledBuffer` when the reader has a
        pool (the caller must ``release()`` it) or a ``bytearray``
        otherwise.  The CRC is **verified here**, so downstream decoders
        can pass ``check_crc=False``.  This is the fetch half of
        :meth:`read_block`, exposed for the parallel decode pipeline's
        read-ahead fetcher.
        """
        if not self._readinto_exact(self._header_view, allow_eof=True):
            return None
        header = decode_header(self._header_buf)
        if self._pool is not None:
            payload = self._pool.acquire(header.compressed_len)
            try:
                self._readinto_exact(payload.view, allow_eof=False)
                if not verify_crc(header, payload.view):
                    raise CorruptBlockError("payload CRC mismatch")
            except BaseException:
                payload.release()
                raise
        else:
            payload = self._read_exact(header.compressed_len, allow_eof=False)
            assert payload is not None
            if not verify_crc(header, payload):
                raise CorruptBlockError("payload CRC mismatch")
        self.bytes_in += HEADER_SIZE + header.compressed_len
        return header, payload

    def read_block(self) -> Optional[bytes]:
        """Return the next decoded block, or ``None`` at clean EOF."""
        frame = self.read_frame()
        if frame is None:
            return None
        header, payload = frame
        if self._pool is not None:
            try:
                data = decode_payload(
                    header, payload.view, self._registry, check_crc=False
                )
            finally:
                payload.release()
        else:
            data = decode_payload(header, payload, self._registry, check_crc=False)
        self.blocks_read += 1
        self.bytes_out += len(data)
        return data

    def close(self) -> None:
        """No-op: present so serial and parallel decoders share one
        interface (the :class:`~repro.core.pipeline.ParallelBlockDecoder`
        stops its threads here).  The source is left to the caller."""

    def abort(self) -> None:
        """No-op counterpart of the parallel decoder's error teardown."""

    def __iter__(self) -> Iterator[bytes]:
        while True:
            block = self.read_block()
            if block is None:
                return
            yield block
