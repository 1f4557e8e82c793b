"""Client helper for the transfer service.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` handshake
and then reuses the stock stream writers
(:class:`~repro.core.stream.AdaptiveBlockWriter` /
:class:`~repro.core.stream.StaticBlockWriter`) over a
:class:`~repro.io.sockets.VectoredSocketWriter`, so a served upload
puts byte-identical frames on the wire as any other transport in this
repo.  Two verbs map to the two server modes:

* :meth:`ServeClient.upload` — stream data to the server's sink and
  check the trailer's plaintext CRC32 against the locally computed one
  (end-to-end byte-identity proof without the server storing a byte).
* :meth:`ServeClient.echo` — stream data up while the server re-encodes
  every decoded block through the flow's own adaptive scheme and
  streams it back; the client decodes the return stream and verifies
  both directions.

Admission rejections surface as :class:`FlowRejectedError`; anything
malformed on the wire as :class:`ServeProtocolError`.
"""

from __future__ import annotations

import socket
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

from ..codecs.block import (
    HEADER_SIZE,
    MAGIC,
    crc32_combine,
    decode_header,
    decode_payload,
)
from ..codecs.errors import CodecError
from ..codecs.registry import DEFAULT_REGISTRY
from ..core.levels import CompressionLevelTable, default_level_table
from ..core.stream import AdaptiveBlockWriter, StaticBlockWriter
from ..io.sockets import VectoredSocketWriter
from .protocol import (
    CONTROL_MAGIC,
    MODE_ECHO,
    MODE_SINK,
    ProtocolError,
    encode_hello,
    parse_control,
)

__all__ = [
    "ServeClient",
    "FlowResult",
    "ServeError",
    "FlowRejectedError",
    "ServeProtocolError",
]

_CHUNK = 256 * 1024


class ServeError(RuntimeError):
    """Base class for client-visible serve failures."""


class FlowRejectedError(ServeError):
    """The server refused admission (capacity, draining, bad hello)."""


class ServeProtocolError(ServeError):
    """The server sent bytes that violate the protocol or the CRC."""


@dataclass
class FlowResult:
    """Outcome of one client-side flow, both directions verified."""

    flow_id: int
    mode: str
    app_bytes: int  #: plaintext bytes streamed up
    wire_bytes_sent: int  #: framed bytes put on the socket
    wire_bytes_received: int  #: framed bytes read back (echo mode)
    seconds: float
    trailer: Dict[str, object] = field(default_factory=dict)
    data: Optional[bytes] = None  #: echoed plaintext (echo mode only)
    #: In-band ``{"ctl": ...}`` frames the server pushed mid-flow
    #: (fleet-controller rebalances), in arrival order.
    controls: list = field(default_factory=list)

    @property
    def compression_ratio(self) -> float:
        """Upload wire bytes over plaintext bytes (≤ 1 when it helped)."""
        return self.wire_bytes_sent / self.app_bytes if self.app_bytes else 1.0


class _SocketBuf:
    """Buffered reader over a blocking socket, in one reused buffer.

    ``recv_into`` fills a :data:`_CHUNK`-byte buffer, grown only for a
    frame larger than that, and frames are parsed where they landed:
    :meth:`read_exact` returns a view that stays valid until the next
    read.  Unread bytes move to the front only when a frame would run
    past the end of the buffer.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray(_CHUNK)
        self._view = memoryview(self._buf)
        self._start = 0  #: first unread byte
        self._end = 0  #: one past the last received byte
        self.total_read = 0

    def _fill(self, need: int) -> bool:
        """Receive more bytes, with room for ``need`` unread; False at EOF."""
        have = self._end - self._start
        if self._start + need > len(self._buf):
            if need > len(self._buf):
                buf = bytearray(max(need, 2 * len(self._buf)))
                buf[:have] = self._view[self._start : self._end]
                self._buf, self._view = buf, memoryview(buf)
            else:
                self._view[:have] = self._view[self._start : self._end]
            self._start, self._end = 0, have
        got = self._sock.recv_into(self._view[self._end :])
        if not got:
            return False
        self._end += got
        self.total_read += got
        return True

    def _ensure(self, n: int) -> bool:
        """Hold at least ``n`` unread bytes; False if the peer closed first."""
        while self._end - self._start < n:
            if not self._fill(n):
                return False
        return True

    def peek(self, n: int) -> bytes:
        self._ensure(n)
        return bytes(self._view[self._start : min(self._start + n, self._end)])

    def read_exact(self, n: int, what: str) -> memoryview:
        """The next ``n`` bytes, as a view valid until the next read."""
        if not self._ensure(n):
            raise ServeProtocolError(
                f"connection closed mid-{what} ({self._end - self._start}/{n} bytes)"
            )
        start = self._start
        self._start += n
        return self._view[start : start + n]

    def read_control(self, what: str) -> Dict[str, object]:
        while True:
            try:
                parsed = parse_control(self._view[self._start : self._end])
            except ProtocolError as exc:
                raise ServeProtocolError(f"bad {what}: {exc}") from exc
            if parsed is not None:
                body, consumed = parsed
                self._start += consumed
                return body
            if not self._fill(self._end - self._start + 1):
                raise ServeProtocolError(f"connection closed before {what}")


def _iter_chunks(source: Union[bytes, bytearray, memoryview, Iterable[bytes]]):
    if isinstance(source, (bytes, bytearray, memoryview)):
        view = memoryview(source)
        for offset in range(0, view.nbytes, _CHUNK):
            yield view[offset : offset + _CHUNK]
    elif hasattr(source, "read"):
        while True:
            chunk = source.read(_CHUNK)
            if not chunk:
                return
            yield chunk
    else:
        yield from source


class ServeClient:
    """Connect-per-flow client for a :class:`~repro.serve.TransferServer`.

    One :class:`ServeClient` is cheap and stateless between calls; it
    can drive any number of sequential flows, and independent instances
    (or threads) drive concurrent ones.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        levels: Optional[CompressionLevelTable] = None,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.levels = levels or default_level_table()
        self.timeout = timeout

    # -- public verbs ------------------------------------------------

    def upload(
        self,
        source,
        *,
        level: Union[str, int] = "adaptive",
        block_size: int = 128 * 1024,
        workers: int = 1,
        epoch_seconds: float = 0.25,
    ) -> FlowResult:
        """Stream ``source`` to the server sink; verify the trailer CRC."""
        t0 = time.monotonic()
        sock = self._connect()
        try:
            buf, ack = self._handshake(sock, MODE_SINK, {})
            crc, app_bytes, sent = self._stream_up(
                sock, source, level, block_size, workers, epoch_seconds
            )
            trailer, controls = self._read_trailer(buf)
            self._check_trailer(trailer, crc, app_bytes)
            return FlowResult(
                flow_id=int(ack.get("flow_id", 0)),
                mode=MODE_SINK,
                app_bytes=app_bytes,
                wire_bytes_sent=sent,
                wire_bytes_received=buf.total_read,
                seconds=time.monotonic() - t0,
                trailer=trailer,
                controls=controls,
            )
        finally:
            sock.close()

    def echo(
        self,
        source,
        *,
        server_level: Optional[str] = None,
        server_block_size: Optional[int] = None,
        level: Union[str, int] = "adaptive",
        block_size: int = 128 * 1024,
        workers: int = 1,
        epoch_seconds: float = 0.25,
        collect: bool = True,
    ) -> FlowResult:
        """Round-trip ``source`` through the server's re-encode path.

        The upload runs on a helper thread while this thread decodes
        the return stream, so both directions make progress and the
        server's per-flow write backpressure never deadlocks the
        client.  With ``collect=False`` the echoed plaintext is CRC
        checked but not accumulated (for large soak runs).
        """
        params: Dict[str, object] = {}
        if server_level is not None:
            params["level"] = server_level
        if server_block_size is not None:
            params["block_size"] = server_block_size
        t0 = time.monotonic()
        sock = self._connect()
        try:
            buf, ack = self._handshake(sock, MODE_ECHO, params)
            up: Dict[str, object] = {}
            failures: list = []

            def _sender() -> None:
                try:
                    up["result"] = self._stream_up(
                        sock, source, level, block_size, workers, epoch_seconds
                    )
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failures.append(exc)

            sender = threading.Thread(target=_sender, name="repro-serve-echo-up")
            sender.start()
            try:
                echoed, echo_crc, trailer, controls = self._read_echo(buf, collect)
            finally:
                sender.join()
            if failures:
                raise failures[0]
            crc, app_bytes, sent = up["result"]  # type: ignore[misc]
            self._check_trailer(trailer, crc, app_bytes)
            if echo_crc != crc:
                raise ServeProtocolError(
                    f"echoed plaintext CRC {echo_crc:#010x} != sent {crc:#010x}"
                )
            return FlowResult(
                flow_id=int(ack.get("flow_id", 0)),
                mode=MODE_ECHO,
                app_bytes=app_bytes,
                wire_bytes_sent=sent,
                wire_bytes_received=buf.total_read,
                seconds=time.monotonic() - t0,
                trailer=trailer,
                data=echoed,
                controls=controls,
            )
        finally:
            sock.close()

    # -- plumbing ----------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        return sock

    def _handshake(
        self, sock: socket.socket, mode: str, params: Dict[str, object]
    ) -> Tuple[_SocketBuf, Dict[str, object]]:
        sock.sendall(encode_hello(mode, params))
        buf = _SocketBuf(sock)
        try:
            ack = buf.read_control("admission ack")
        except ServeProtocolError as exc:
            # A close/reset before the ack is the observable shape of a
            # reject that lost the race with our hello bytes.
            raise FlowRejectedError(f"no admission ack: {exc}") from exc
        except ConnectionError as exc:
            raise FlowRejectedError(f"connection dropped during handshake: {exc}") from exc
        if not ack.get("ok", False):
            raise FlowRejectedError(str(ack.get("error", "rejected")))
        return buf, ack

    def _resolve_level(self, level: Union[str, int]) -> Optional[int]:
        """``None`` means adaptive; an int is a static level index."""
        if level == "adaptive":
            return None
        if isinstance(level, str):
            return self.levels.index_of(level)
        if not 0 <= int(level) < len(self.levels):
            raise ValueError(f"level {level} out of range")
        return int(level)

    def _stream_up(
        self,
        sock: socket.socket,
        source,
        level: Union[str, int],
        block_size: int,
        workers: int,
        epoch_seconds: float,
    ) -> Tuple[int, int, int]:
        """Stream source as framed blocks; returns (crc, app_bytes, wire)."""
        static_level = self._resolve_level(level)
        sink = VectoredSocketWriter(sock)
        if static_level is None:
            writer = AdaptiveBlockWriter(
                sink,
                self.levels,
                block_size=block_size,
                epoch_seconds=epoch_seconds,
                workers=workers,
            )
        else:
            writer = StaticBlockWriter(
                sink, static_level, self.levels, block_size=block_size, workers=workers
            )
        crc = 0
        app_bytes = 0
        try:
            for chunk in _iter_chunks(source):
                crc = zlib.crc32(chunk, crc) & 0xFFFFFFFF
                app_bytes += len(chunk)
                writer.write(chunk)
            writer.close()
        except BaseException:
            writer.abort()
            raise
        sock.shutdown(socket.SHUT_WR)
        return crc, app_bytes, writer.bytes_out

    def _read_echo(
        self, buf: _SocketBuf, collect: bool
    ) -> Tuple[Optional[bytes], int, Dict[str, object], list]:
        """Decode interleaved block frames until the trailer control.

        Mid-flow ``{"ctl": ...}`` control frames (fleet rebalances) are
        collected, not treated as the trailer.
        """
        chunks: list = []
        controls: list = []
        crc = 0
        while True:
            prefix = buf.peek(len(CONTROL_MAGIC))
            if not prefix:
                raise ServeProtocolError("connection closed before trailer")
            if prefix.startswith(MAGIC):
                try:
                    header = decode_header(buf.read_exact(HEADER_SIZE, "block header"))
                    payload = buf.read_exact(header.compressed_len, "block payload")
                    # The frame's one copy: decoded out of the read buffer.
                    data = decode_payload(header, payload, DEFAULT_REGISTRY)
                except CodecError as exc:
                    raise ServeProtocolError(f"bad echo frame: {exc!r}") from exc
                if header.codec_id == 0:
                    # Verified above: the frame CRC covers exactly data.
                    crc = crc32_combine(crc, header.crc32, len(data))
                else:
                    crc = zlib.crc32(data, crc) & 0xFFFFFFFF
                if collect:
                    chunks.append(data)
            elif prefix == CONTROL_MAGIC:
                body = buf.read_control("control frame")
                if "ctl" in body:
                    controls.append(body)
                    continue
                return (b"".join(chunks) if collect else None), crc, body, controls
            else:
                raise ServeProtocolError(f"unexpected frame prefix {prefix!r}")

    @staticmethod
    def _read_trailer(buf: _SocketBuf) -> Tuple[Dict[str, object], list]:
        """Read control frames until the trailer, collecting ctl pushes."""
        controls: list = []
        while True:
            body = buf.read_control("trailer")
            if "ctl" not in body:
                return body, controls
            controls.append(body)

    @staticmethod
    def _check_trailer(trailer: Dict[str, object], crc: int, app_bytes: int) -> None:
        if not trailer.get("ok", False):
            raise ServeProtocolError(f"server reported failure: {trailer!r}")
        if trailer.get("app_bytes") != app_bytes:
            raise ServeProtocolError(
                f"server decoded {trailer.get('app_bytes')} bytes, sent {app_bytes}"
            )
        if trailer.get("crc32") != crc:
            raise ServeProtocolError(
                f"server CRC {trailer.get('crc32')} != local {crc:#010x}"
            )
