"""Real-TCP adaptive transfer on localhost.

The closest runnable equivalent of the paper's sender/receiver job on
actual sockets: a receiver thread accepts one TCP connection and
decompresses the block stream; the sender pushes a
:class:`~repro.data.datasource.DataSource` through an
:class:`~repro.core.stream.AdaptiveBlockWriter` (or a static one) into
the socket, optionally behind a token-bucket throttle standing in for
the contended link.

Robustness contract (see docs/robustness.md): the transfer either
completes or fails with a single well-attributed exception, and in both
cases every resource is reclaimed — the receiver thread is joined, both
sockets and their file objects are closed, and any pipeline workers are
stopped.  Connects retry with exponential backoff
(:class:`~repro.core.recovery.RetryPolicy`), accepts and sends/receives
are bounded by timeouts, and ``resync=True`` swaps the receiver's
strict :class:`~repro.codecs.block.BlockReader` for the
:class:`~repro.core.recovery.ResyncBlockReader`, which skips damaged
blocks instead of failing the stream.

Caveat recorded in EXPERIMENTS.md: with ``workers=1`` compression,
socket I/O and decompression share the CPython GIL, so absolute
throughputs are not comparable to the paper's Java implementation — but
the adaptive scheme's *decisions* depend only on relative rates, which
survive.  ``workers>1`` routes compression through the
:class:`~repro.core.pipeline.ParallelBlockEncoder`; because zlib/bz2/
lzma release the GIL while compressing, multi-core hosts then overlap
compression with socket I/O and with each other, and only the framing
and kernel calls remain serialised.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, List, Optional

from ..codecs.block import DEFAULT_BLOCK_SIZE
from ..core.buffers import BufferPool
from ..core.controller import EpochRecord
from ..core.levels import CompressionLevelTable
from ..core.pipeline import make_block_decoder
from ..core.recovery import RetryPolicy, retry_call
from ..core.stream import AdaptiveBlockWriter, StaticBlockWriter
from ..data.datasource import DataSource
from ..telemetry.events import BUS, TransferProgress
from .throttle import ThrottledWriter, TokenBucket

#: Application bytes between TransferProgress emissions on the sender.
PROGRESS_EVERY_BYTES = 8 * 1024 * 1024

#: Default bound on how long the receiver waits for a connection.
DEFAULT_ACCEPT_TIMEOUT = 30.0

#: Default listen(2) backlog for listeners opened by this module.
DEFAULT_BACKLOG = 128

#: Most buffers one ``sendmsg`` may carry on this platform.
try:
    IOV_MAX = max(1, os.sysconf("SC_IOV_MAX"))
except (AttributeError, ValueError, OSError):  # pragma: no cover - platform-dependent
    IOV_MAX = 16


def open_listener(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    backlog: int = DEFAULT_BACKLOG,
    reuse_addr: bool = True,
) -> socket.socket:
    """Open a TCP listening socket with test-friendly defaults.

    Every listener this package creates (the one-shot
    :class:`ReceiverThread` and the :mod:`repro.serve` daemon) goes
    through here so they share two properties the raw
    ``socket.create_server`` call does not guarantee on every platform:
    ``SO_REUSEADDR`` is set *explicitly* (rapidly restarted tests and
    daemons must not trip over the previous instance's TIME_WAIT
    sockets with ``EADDRINUSE``), and the ``listen(2)`` ``backlog`` is
    a visible knob instead of a hidden default — a daemon expecting a
    thundering herd of connects wants it deep, a single-transfer
    receiver can keep it tiny.
    """
    if backlog < 1:
        raise ValueError("backlog must be >= 1")
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        if reuse_addr:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(backlog)
    except BaseException:
        sock.close()
        raise
    return sock


class VectoredSocketWriter:
    """File-like socket sink with vectored (``sendmsg``) frame writes.

    Replaces ``socket.makefile("wb")`` on the sender's hot path: the
    block writers detect :meth:`writev` and hand over each run of
    frames as separate header and payload parts, which go to the kernel
    in as few ``sendmsg`` calls as the platform's :data:`IOV_MAX`
    allows — the payload is never copied into a contiguous frame in
    userspace.  ``write`` is the compatible scalar fallback.

    The writer does not own the socket; ``close`` is a no-op so the
    transfer's teardown ordering (writer, then socket) stays unchanged.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.bytes_sent = 0

    def write(self, data) -> int:
        self._sock.sendall(data)
        n = data.nbytes if isinstance(data, memoryview) else len(data)
        self.bytes_sent += n
        return n

    def writev(self, parts) -> int:
        """Send all ``parts`` (buffers), at most :data:`IOV_MAX` per ``sendmsg``.

        A short send (the socket buffer filled, or a send timeout)
        resumes from the first unsent byte.
        """
        buffers = [memoryview(p) for p in parts]
        total = sum(b.nbytes for b in buffers)
        first = 0
        while first < len(buffers):
            sent = self._sock.sendmsg(buffers[first : first + IOV_MAX])
            while first < len(buffers) and sent >= buffers[first].nbytes:
                sent -= buffers[first].nbytes
                first += 1
            if sent:
                buffers[first] = buffers[first][sent:]
        self.bytes_sent += total
        return total

    def flush(self) -> None:
        """No-op: every write goes straight to the kernel."""

    def close(self) -> None:
        """No-op: the socket is owned and closed by the transfer."""


class SocketSource:
    """File-like socket reader exposing ``recv_into`` as ``readinto``.

    Replaces ``socket.makefile("rb")`` on the receive path so the block
    decoders' scatter reads land directly in their (pooled) buffers —
    no intermediate ``BufferedReader`` copy per chunk.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def readinto(self, buf) -> int:
        return self._sock.recv_into(buf)


class ReceiverError(RuntimeError):
    """The receiver thread failed; carries its progress as context.

    Raised by :func:`run_socket_transfer` *from* the receiver's
    original exception (so the cross-thread traceback is chained, not
    lost) with the receiver's ``blocks_received``/``bytes_received`` at
    the time of failure.
    """

    def __init__(
        self, message: str, *, blocks_received: int = 0, bytes_received: int = 0
    ) -> None:
        super().__init__(
            f"{message} (receiver had decoded {blocks_received} blocks, "
            f"{bytes_received} bytes)"
        )
        self.blocks_received = blocks_received
        self.bytes_received = bytes_received


class ReceiverThread(threading.Thread):
    """Accept one connection; decompress and count everything.

    ``resync=True`` decodes with
    :class:`~repro.core.recovery.ResyncBlockReader` — damaged blocks
    are skipped and counted instead of failing the stream.  The accept
    wait is bounded by ``accept_timeout`` and per-read waits by
    ``recv_timeout``; a breached bound surfaces through ``error`` like
    any other failure, so the thread can never hang forever on a
    sender that dies before (or after) connecting.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        *,
        resync: bool = False,
        decode_workers: int = 1,
        accept_timeout: Optional[float] = DEFAULT_ACCEPT_TIMEOUT,
        recv_timeout: Optional[float] = None,
        backlog: int = DEFAULT_BACKLOG,
    ) -> None:
        super().__init__(name="repro-receiver", daemon=True)
        self._stopped = False
        self._listener = open_listener(host, backlog=backlog)
        self._listener.settimeout(accept_timeout)
        self._recv_timeout = recv_timeout
        self._resync = resync
        self._decode_workers = decode_workers
        self.address = self._listener.getsockname()
        self.bytes_received = 0
        self.blocks_received = 0
        self.blocks_skipped = 0
        self.bytes_skipped = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            try:
                conn, _ = self._listener.accept()
            except BaseException as exc:  # noqa: BLE001 - surfaced via .error
                # A failure provoked by stop() itself (the wakeup
                # connection or the listener close racing the accept)
                # is a clean shutdown, not an error to surface.
                if not self._stopped:
                    self.error = exc
                return
            # The accepted connection may be stop()'s wakeup rather
            # than a real sender; no need to tell them apart — the
            # wakeup is already closed, reads as instant EOF and
            # decodes to zero blocks.
            with conn:
                conn.settimeout(self._recv_timeout)
                decoder = make_block_decoder(
                    SocketSource(conn),
                    workers=self._decode_workers,
                    resync=self._resync,
                    pool=BufferPool(),
                    event_source="socket-decode",
                )
                try:
                    for block in decoder:
                        self.bytes_received += len(block)
                        self.blocks_received += 1
                    if self._resync:
                        self.blocks_skipped = decoder.blocks_skipped
                        self.bytes_skipped = decoder.bytes_skipped
                finally:
                    decoder.close()
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc
        finally:
            self._listener.close()

    def stop(self) -> None:
        """Unblock a pending ``accept`` and retire the listener now.

        Closing a listening socket does *not* wake a thread already
        parked inside ``accept`` on Linux — the poll keeps running
        until ``accept_timeout``.  So stop() first makes a throwaway
        self-connection to deliver the wakeup, then closes the
        listener.  Called by the sender's teardown when the transfer
        dies before connecting; idempotent and safe at any point in
        the thread's lifecycle (a wakeup connection racing a finished
        thread just fails and is ignored).
        """
        self._stopped = True
        try:
            with socket.create_connection(self.address, timeout=1):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


@dataclass
class SocketTransferResult:
    """Outcome of one localhost socket transfer."""

    app_bytes: int
    wire_bytes: int
    wall_seconds: float
    #: Adaptive-mode epoch trace (empty for static levels).
    epochs: List[EpochRecord] = field(default_factory=list)
    receiver_bytes: int = 0
    #: Resync-mode damage accounting (always 0 in strict mode).
    blocks_skipped: int = 0
    bytes_skipped: int = 0

    @property
    def app_rate(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.app_bytes / self.wall_seconds

    @property
    def compression_ratio(self) -> float:
        if self.app_bytes == 0:
            return 1.0
        return self.wire_bytes / self.app_bytes


def run_socket_transfer(
    source: DataSource,
    *,
    levels: Optional[CompressionLevelTable] = None,
    static_level: Optional[int] = None,
    rate_limit: Optional[float] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    epoch_seconds: float = 0.25,
    alpha: float = 0.2,
    chunk_bytes: int = 64 * 1024,
    workers: int = 1,
    decode_workers: int = 1,
    resync: bool = False,
    connect_policy: Optional[RetryPolicy] = None,
    send_timeout: Optional[float] = None,
    recv_timeout: Optional[float] = None,
    accept_timeout: Optional[float] = DEFAULT_ACCEPT_TIMEOUT,
    join_timeout: float = 60.0,
    backlog: int = DEFAULT_BACKLOG,
    wrap_sink: Optional[Callable[[BinaryIO], BinaryIO]] = None,
) -> SocketTransferResult:
    """Send ``source`` over a real localhost TCP connection.

    ``static_level=None`` selects the adaptive scheme.  ``rate_limit``
    (bytes/s) throttles the sender's writes, emulating a slow/contended
    link.  ``epoch_seconds`` defaults to 0.25 s rather than the paper's
    2 s so short test transfers still see several decision epochs.
    ``workers`` > 1 compresses blocks on a thread pipeline (identical
    wire bytes; see the module docstring for when this helps), and
    ``decode_workers`` > 1 is the receive-side mirror: the receiver
    decodes through a
    :class:`~repro.core.pipeline.ParallelBlockDecoder` instead of the
    serial reader — same plaintext, decompression spread across cores.
    Each frame goes out as header+payload parts in one ``sendmsg`` via
    :class:`VectoredSocketWriter`, unless ``wrap_sink`` or
    ``rate_limit`` interposes a byte-stream wrapper that must see every
    wire byte; the sender then writes through ``makefile("wb")``.

    Robustness knobs: ``connect_policy`` retries the connect with
    exponential backoff (default :class:`RetryPolicy()`);
    ``send_timeout``/``recv_timeout``/``accept_timeout`` bound every
    socket wait; ``backlog`` sizes the receiver's listen queue (the
    listener always sets ``SO_REUSEADDR`` via :func:`open_listener`, so
    rapid restarts never hit ``EADDRINUSE``); ``resync=True`` makes the
    receiver skip damaged
    blocks (reported via ``blocks_skipped``/``bytes_skipped``) instead
    of failing.  ``wrap_sink`` wraps the sender's wire-side file object
    — the hook the fault-injection harness uses to corrupt, stall or
    reset the stream (see :mod:`repro.io.faults`).

    Failure contract: a receiver-side failure raises
    :class:`ReceiverError` chained from the original exception; a
    sender-side failure propagates as-is — and on **every** path the
    receiver thread is joined, both sockets are closed and pipeline
    workers are stopped, so no thread or fd outlives the call.
    """
    receiver = ReceiverThread(
        resync=resync,
        decode_workers=decode_workers,
        accept_timeout=accept_timeout,
        recv_timeout=recv_timeout,
        backlog=backlog,
    )
    receiver.start()
    policy = connect_policy if connect_policy is not None else RetryPolicy()

    sock: Optional[socket.socket] = None
    raw_sink = None
    writer = None
    sender_exc: Optional[BaseException] = None
    completed = False
    epochs: List[EpochRecord] = []
    app_bytes = 0
    wire_bytes = 0
    t0 = time.monotonic()
    try:
        sock = retry_call(
            lambda: socket.create_connection(receiver.address),
            policy=policy,
            retry_on=(OSError,),
        )
        sock.settimeout(send_timeout)
        if wrap_sink is None and rate_limit is None:
            # Nothing needs to observe the byte stream: write frames
            # straight to the socket, header+payload per sendmsg.
            raw_sink = VectoredSocketWriter(sock)
        else:
            raw_sink = sock.makefile("wb")
        sink: BinaryIO = raw_sink
        if wrap_sink is not None:
            sink = wrap_sink(sink)
        if rate_limit is not None:
            bucket = TokenBucket(
                rate=rate_limit, capacity=max(rate_limit / 20, 64 * 1024)
            )
            sink = ThrottledWriter(sink, bucket)

        if static_level is None:
            writer = AdaptiveBlockWriter(
                sink,
                levels,
                block_size=block_size,
                epoch_seconds=epoch_seconds,
                alpha=alpha,
                workers=workers,
            )
        else:
            writer = StaticBlockWriter(
                sink,
                static_level,
                levels,
                block_size=block_size,
                workers=workers,
            )

        next_progress = PROGRESS_EVERY_BYTES
        while True:
            chunk = source.read(chunk_bytes)
            if not chunk:
                break
            writer.write(chunk)
            app_bytes += len(chunk)
            if BUS.active and app_bytes >= next_progress:
                next_progress = app_bytes + PROGRESS_EVERY_BYTES
                BUS.publish(
                    TransferProgress(
                        ts=BUS.now(),
                        source="socket",
                        bytes_in=writer.bytes_in,
                        bytes_out=writer.bytes_out,
                        ratio=writer.bytes_out / writer.bytes_in
                        if writer.bytes_in
                        else 1.0,
                    )
                )
        writer.close()
        if BUS.active:
            BUS.publish(
                TransferProgress(
                    ts=BUS.now(),
                    source="socket",
                    bytes_in=writer.bytes_in,
                    bytes_out=writer.bytes_out,
                    ratio=writer.bytes_out / writer.bytes_in
                    if writer.bytes_in
                    else 1.0,
                    done=True,
                )
            )
        if static_level is None:
            epochs = list(writer.controller.trace)
        wire_bytes = writer.bytes_out
        raw_sink.flush()
        completed = True
    except BaseException as exc:  # noqa: BLE001 - re-raised below after teardown
        sender_exc = exc
    finally:
        # Guaranteed teardown, tolerant of every partial state: abort
        # (not close) the writer so nothing tries to flush into a sink
        # that is already broken, then close both fds, then unblock a
        # receiver that may still be sitting in accept, then join it.
        if writer is not None and not completed:
            try:
                writer.abort()
            except Exception:  # pragma: no cover - teardown is best-effort
                pass
        if raw_sink is not None:
            try:
                raw_sink.close()
            except OSError:
                pass
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - teardown is best-effort
                pass
        if sock is None:
            # The sender never connected, so the receiver may be parked
            # in accept(); wake and retire it.  When a connection *was*
            # made we must not stop() yet — the receiver might not have
            # reached accept() at all, and closing the listener now
            # would orphan the real pending connection.  The closed
            # sender socket already guarantees it EOFs out.
            receiver.stop()
        receiver.join(timeout=join_timeout)
        if receiver.is_alive():
            # Last resort for a receiver stuck past join_timeout.
            receiver.stop()
            receiver.join(timeout=5.0)

    wall = time.monotonic() - t0
    if sender_exc is not None:
        if receiver.error is not None and isinstance(
            sender_exc, (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)
        ):
            # The sender's pipe error is a symptom: the receiver died
            # first and the kernel reset the connection under us.
            raise ReceiverError(
                f"receiver failed: {receiver.error!r}",
                blocks_received=receiver.blocks_received,
                bytes_received=receiver.bytes_received,
            ) from receiver.error
        raise sender_exc
    if receiver.is_alive():
        raise TimeoutError(f"receiver did not finish within {join_timeout}s")
    if receiver.error is not None:
        raise ReceiverError(
            f"receiver failed: {receiver.error!r}",
            blocks_received=receiver.blocks_received,
            bytes_received=receiver.bytes_received,
        ) from receiver.error
    if not resync and wrap_sink is None and receiver.bytes_received != app_bytes:
        raise AssertionError(
            f"receiver got {receiver.bytes_received} bytes, sender sent {app_bytes}"
        )
    return SocketTransferResult(
        app_bytes=app_bytes,
        wire_bytes=wire_bytes,
        wall_seconds=wall,
        epochs=epochs,
        receiver_bytes=receiver.bytes_received,
        blocks_skipped=receiver.blocks_skipped,
        bytes_skipped=receiver.bytes_skipped,
    )
