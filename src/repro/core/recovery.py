"""Recovery on the block-transfer path: resync decoding and retries.

Section III-B's framing makes every 128 KB block self-contained — "each
block contains all the information to be decompressed by the receiver"
— which means corruption *should* cost one block, not the job.  The
strict :class:`~repro.codecs.block.BlockReader` deliberately fails the
whole stream on the first bad byte; :class:`ResyncBlockReader` is the
lenient counterpart that cashes in the self-containment claim: on a
CRC mismatch, bad header or undecodable payload it scans forward for
the next ``MAGIC`` boundary, skips the damaged region, and keeps
decoding, reporting ``blocks_skipped``/``bytes_skipped`` instead of
raising.

:class:`RetryPolicy` is the shared exponential-backoff schedule used by
:func:`repro.io.sockets.run_socket_transfer` for connect retries; it is
deterministic (seeded jitter) so tests can assert exact delays.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator, List, Optional, Tuple, Type

from ..codecs.block import (
    HEADER_SIZE,
    MAGIC,
    BlockHeader,
    decode_header,
    decode_payload,
    verify_crc,
)
from ..codecs.errors import CodecError, CorruptBlockError
from ..codecs.registry import DEFAULT_REGISTRY, CodecRegistry
from ..telemetry.events import BUS, BlockSkipped

__all__ = ["ResyncBlockReader", "ResyncFrameScanner", "RetryPolicy", "retry_call"]

#: Read granularity while refilling the resync buffer.
_READ_CHUNK = 64 * 1024


class ResyncFrameScanner:
    """Scan a damaged framed stream for CRC-valid candidate frames.

    The fetch half of the resync algorithm (see docs/robustness.md),
    factored out so one implementation serves both the serial
    :class:`ResyncBlockReader` and the read-ahead fetcher of the
    :class:`~repro.core.pipeline.ParallelBlockDecoder`:

    1. Scan the buffered stream for the two-byte ``MAGIC``; bytes
       before it are damage, counted into ``bytes_skipped``.
    2. Validate the candidate header (magic, version, sane lengths —
       the same bounds as the strict reader).  An invalid header means
       a false ``MAGIC`` inside damaged bytes: slide one byte and
       rescan.
    3. CRC-check the candidate payload.  On mismatch, slide one byte
       past the candidate's magic and rescan — crucially *without*
       trusting the candidate's claimed payload length, so a corrupted
       length field can never swallow healthy downstream frames.
    4. Each maximal run of discarded bytes counts as **one** entry in
       ``blocks_skipped`` (isolated corruption damages exactly one
       block) and publishes one
       :class:`~repro.telemetry.events.BlockSkipped` event.

    Protocol: :meth:`next_frame` positions a CRC-valid frame at the
    head of the buffer and returns its header; :meth:`payload_view`
    exposes the payload without copying; the caller then either
    :meth:`accept`\\ s the frame (consuming it) or :meth:`reject`\\ s it
    (slide one byte, keep scanning) if decompression still fails —
    preserving the strict "never silently wrong bytes" slide-and-rescan
    semantics end to end.
    """

    def __init__(
        self,
        source: BinaryIO,
        *,
        event_source: str = "resync-reader",
    ) -> None:
        self._readinto = source.readinto
        self._event_source = event_source
        self._buffer = bytearray()
        self._eof = False
        self._frame_len = 0
        #: Bytes discarded while scanning since the last good block
        #: (pending until attributed to a skip region).
        self._pending_skip = 0
        #: Raw stream bytes consumed (frames + damage).
        self.bytes_in = 0
        #: Number of damaged regions skipped (>= damaged blocks merged
        #: into contiguous runs, == damaged blocks for isolated faults).
        self.blocks_skipped = 0
        #: Total damaged/undecodable bytes discarded.
        self.bytes_skipped = 0

    # -- buffered input ---------------------------------------------

    def _fill(self, need: int) -> bool:
        """Grow the buffer to ``need`` bytes; False once EOF gets in
        the way."""
        buffered = len(self._buffer)
        while buffered < need and not self._eof:
            want = max(need - buffered, _READ_CHUNK)
            # Scatter-read straight into the buffer tail (the receive
            # loop's ``recv_into`` path): grow, fill, trim.
            self._buffer.extend(bytes(want))
            with memoryview(self._buffer) as view:
                got = self._readinto(view[buffered:])
            del self._buffer[buffered + (got or 0) :]
            if not got:
                self._eof = True
                break
            buffered += got
        return len(self._buffer) >= need

    def _discard(self, n: int) -> None:
        del self._buffer[:n]
        self._pending_skip += n
        self.bytes_in += n

    def _close_skip_region(self) -> None:
        """Fold pending discarded bytes into the public counters."""
        if not self._pending_skip:
            return
        self.blocks_skipped += 1
        self.bytes_skipped += self._pending_skip
        if BUS.active:
            BUS.publish(
                BlockSkipped(
                    ts=BUS.now(),
                    source=self._event_source,
                    bytes_skipped=self._pending_skip,
                    total_blocks_skipped=self.blocks_skipped,
                    total_bytes_skipped=self.bytes_skipped,
                )
            )
        self._pending_skip = 0

    # -- scanning ---------------------------------------------------

    def next_frame(self) -> Optional[BlockHeader]:
        """Advance to the next CRC-valid frame; ``None`` once spent.

        On return the frame occupies the buffer head; read its payload
        with :meth:`payload_view`, then :meth:`accept` or
        :meth:`reject` it.  Never raises on corruption.
        """
        while True:
            if not self._fill(HEADER_SIZE):
                # Too few bytes left to hold any frame: whatever
                # remains is damage (e.g. a truncated final frame).
                if self._buffer:
                    self._discard(len(self._buffer))
                self._close_skip_region()
                return None
            idx = self._buffer.find(MAGIC)
            if idx < 0:
                # Keep the final byte: it may be the first half of a
                # MAGIC split across the chunk boundary.
                self._discard(len(self._buffer) - 1)
                continue
            if idx > 0:
                self._discard(idx)
                continue
            try:
                header = decode_header(self._buffer[:HEADER_SIZE])
            except CorruptBlockError:
                self._discard(1)
                continue
            need = HEADER_SIZE + header.compressed_len
            if not self._fill(need):
                # EOF before the claimed payload: either a truncated
                # tail frame or a false header — slide and rescan what
                # we do have.
                self._discard(1)
                continue
            with memoryview(self._buffer) as view:
                ok = verify_crc(header, view[HEADER_SIZE:need])
            if not ok:
                self._discard(1)
                continue
            self._frame_len = need
            return header

    def payload_view(self) -> memoryview:
        """Zero-copy view of the current frame's payload.

        Valid only between :meth:`next_frame` and the following
        :meth:`accept`/:meth:`reject`; release it before either.
        """
        return memoryview(self._buffer)[HEADER_SIZE : self._frame_len]

    def accept(self) -> None:
        """Consume the current frame and close any pending skip region."""
        need, self._frame_len = self._frame_len, 0
        del self._buffer[:need]
        self._close_skip_region()
        self.bytes_in += need

    def reject(self) -> None:
        """Discard one byte of the current candidate and keep scanning.

        The CRC matched but the payload would not decode (possible only
        via checksum collision or a registry mismatch): slide past the
        candidate's magic exactly like any other false positive.
        """
        self._frame_len = 0
        self._discard(1)

    def finish(self) -> None:
        """Account any still-pending damage (early shutdown path)."""
        self._close_skip_region()


class ResyncBlockReader:
    """Decode a framed block stream, skipping damaged regions.

    Drop-in replacement for :class:`~repro.codecs.block.BlockReader`
    (same iteration protocol, same ``blocks_read``/``bytes_in``/
    ``bytes_out`` counters) that never raises on corruption: frames are
    located by a :class:`ResyncFrameScanner` and a frame whose payload
    still fails to decompress after its CRC matched is rejected back to
    the scanner, so decoded output is always a prefix-preserving
    ordered subsequence of the original blocks — never silently wrong
    bytes.
    """

    def __init__(
        self,
        source: BinaryIO,
        registry: CodecRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self._scanner = ResyncFrameScanner(source)
        self._registry = registry
        self.blocks_read = 0
        self.bytes_out = 0

    # -- damage accounting (delegated to the scanner) ---------------

    @property
    def bytes_in(self) -> int:
        return self._scanner.bytes_in

    @property
    def blocks_skipped(self) -> int:
        return self._scanner.blocks_skipped

    @property
    def bytes_skipped(self) -> int:
        return self._scanner.bytes_skipped

    # -- decoding ---------------------------------------------------

    def read_block(self) -> Optional[bytes]:
        """Next decodable block, or ``None`` once the stream is spent.

        Never raises on corruption; damage is skipped and counted.
        """
        while True:
            header = self._scanner.next_frame()
            if header is None:
                return None
            payload = self._scanner.payload_view()
            try:
                data = decode_payload(
                    header, payload, self._registry, check_crc=False
                )
            except CodecError:
                data = None
            finally:
                payload.release()
            if data is None:
                self._scanner.reject()
                continue
            self._scanner.accept()
            self.blocks_read += 1
            self.bytes_out += len(data)
            return data

    def close(self) -> None:
        """No-op: interface parity with the parallel decoder."""

    def abort(self) -> None:
        """No-op counterpart of the parallel decoder's error teardown."""

    def __iter__(self) -> Iterator[bytes]:
        while True:
            block = self.read_block()
            if block is None:
                return
            yield block


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff schedule.

    ``delays()`` yields ``attempts - 1`` sleep durations: ``base``
    doubled each retry, capped at ``max_delay``, with multiplicative
    jitter in ``[1 - jitter, 1 + jitter]`` drawn from ``seed`` so runs
    are reproducible.
    """

    attempts: int = 4
    base: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base < 0 or self.max_delay < 0 or not 0 <= self.jitter < 1:
            raise ValueError("invalid backoff parameters")

    def delays(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        delay = self.base
        for _ in range(self.attempts - 1):
            scale = 1.0 + rng.uniform(-self.jitter, self.jitter)
            yield min(delay, self.max_delay) * scale
            delay = min(delay * 2, self.max_delay)


def retry_call(
    fn: Callable[[], "object"],
    *,
    policy: RetryPolicy,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``fn`` under ``policy``, re-raising the last failure.

    Only exceptions in ``retry_on`` are retried; anything else
    propagates immediately.  The failed attempts' exceptions are
    attached to the final error via ``__cause__`` chaining.
    """
    failures: List[BaseException] = []
    delays = policy.delays()
    while True:
        try:
            return fn()
        except retry_on as exc:
            failures.append(exc)
            try:
                pause = next(delays)
            except StopIteration:
                raise exc from (failures[-2] if len(failures) > 1 else None)
            sleep(pause)
