"""Per-connection transfer state machine for the serve event loop.

One :class:`Flow` instance tracks one accepted client connection from
handshake to teardown::

    HANDSHAKING --hello parsed--> STREAMING --client half-close-->
    DRAINING --codec jobs drained, trailer flushed--> CLOSED

A flow owns **no threads**.  All of its methods run on the server's
single event-loop thread, except its codec jobs, which run on the
server's shared :class:`~repro.core.pipeline.CodecThreadPool`.  The
flow submits them through the pool's typed calls
(``submit_decompress``/``submit_compress`` with an ``on_done``
callback), and a completion only stores its result under the flow's
lock and calls the server's ``notify`` callback, so the loop thread
remains the only place where state advances.  The loop
calls :meth:`handle_read` / :meth:`handle_write` on selector readiness
and :meth:`pump` after any readiness or job completion; ``pump`` is
idempotent and drives every transition.

Identity frames (codec id 0: level NO and the stored fallback) never
become pool jobs.  ``pump`` checks each one on the loop thread, in
place in the receive buffer, with the same ``decode_payload`` a pool
would run, and that check's ``bytes`` is the frame's one copy; the
plaintext CRC folds in the verified frame CRC
(:func:`~repro.codecs.block.crc32_combine`) instead of reading the bytes
again; and when the echo level is NO that copy goes back under a
freshly packed flags-0 header, the frame a NO re-encode would write.  A
compressed frame echoed at NO still re-encodes through the pool's
caller-run rule (see :mod:`repro.core.pipeline`).  An identity frame
that is next in decode order is taken at once, with no result entry
and no lock, and its NO echo goes straight onto the write queue when it
is next in encode order; a frame behind a pending pool job waits its
turn in the ordered results like any other.  So ``pump`` repeats its
drain, parse and drain passes until one makes no progress, and a NO
frame is checked, echoed and queued for sending inside a single
``pump``, which :meth:`Flow.handle_write` then puts on the wire with
the rest of its turn in one ``sendmsg``.

Ordering mirrors the pipelines in :mod:`repro.core.pipeline`: decode
and re-encode jobs complete on whatever worker frees up first, and the
flow reassembles both strictly in submission order, so the plaintext
CRC and (in echo mode) the response stream are deterministic
regardless of scheduling.  Backpressure is two-sided and per flow: the
flow stops reading its socket while its one block window —
``decode_in_flight + encode_in_flight`` against ``max_inflight_blocks``
— is full, or the pending write queue holds :data:`MAX_WRITE_BUFFER`
bytes, which lets TCP push back on a client outrunning the shared
codec pool without stalling anybody else's flow.  Nothing queued to
send holds a pool slab: an echo frame is queued as its header and its
payload, both ``bytes`` of their exact size.  A job the pool refuses
(a closed pool) fails only its own flow.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from enum import Enum
from functools import partial
from typing import Callable, Deque, Dict, NamedTuple, Optional, Tuple

from ..codecs.base import Codec
from ..codecs.block import (
    HEADER_SIZE,
    MAGIC,
    BlockHeader,
    EncodedParts,
    crc32_combine,
    decode_header,
    decode_payload,
    frame_payload,
)
from ..codecs.errors import CodecError
from ..codecs.registry import DEFAULT_REGISTRY
from ..core.buffers import BufferPool
from ..core.controller import AdaptiveController
from ..core.levels import CompressionLevelTable
from ..core.pipeline import CodecThreadPool, _is_identity
from ..io.sockets import IOV_MAX
from ..telemetry import spans
from ..telemetry.events import BUS, TransferProgress
from .protocol import (
    MODE_ECHO,
    MODE_SINK,
    ProtocolError,
    encode_control,
    parse_hello,
)

__all__ = ["Flow", "FlowState"]

#: Decoded application bytes between per-flow TransferProgress events.
PROGRESS_EVERY_BYTES = 8 * 1024 * 1024

#: Largest hello ``block_size`` a client may send.  The value is range
#: checked and has no effect: the echo is one frame per inbound frame.
MAX_CLIENT_BLOCK_SIZE = 4 * 1024 * 1024

#: Default per-flow window: decodes plus echo re-encodes outstanding.
MAX_INFLIGHT_BLOCKS = 4

#: Queued bytes at which a flow stops reading its socket.
MAX_WRITE_BUFFER = 1 << 20

#: Most bytes one write turn sends: the loop's fairness unit.
WRITE_QUANTUM = 256 * 1024

#: Most bytes one :meth:`Flow.handle_read` takes off the socket.
RECV_CHUNK = 256 * 1024


class FlowState(Enum):
    """Lifecycle of a served flow (see module docstring)."""

    HANDSHAKING = "handshaking"
    STREAMING = "streaming"
    DRAINING = "draining"
    CLOSED = "closed"


class _Received(NamedTuple):
    """A verified identity frame, held until drained."""

    header: BlockHeader
    #: The payload: ``decode_payload``'s copy, the frame's only one.
    data: bytes


class Flow:
    """State machine for one accepted connection (loop thread only)."""

    def __init__(
        self,
        flow_id: int,
        sock,
        peer: str,
        *,
        levels: CompressionLevelTable,
        codec_pool: CodecThreadPool,
        buffer_pool: BufferPool,
        notify: Callable[["Flow"], None],
        default_level: Optional[int] = None,
        epoch_seconds: float = 0.25,
        max_inflight_blocks: int = MAX_INFLIGHT_BLOCKS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.flow_id = flow_id
        self.sock = sock
        self.peer = peer
        self.state = FlowState.HANDSHAKING
        self.mode = ""
        self._levels = levels
        self._registry = DEFAULT_REGISTRY
        self._codec_pool = codec_pool
        self._buffer_pool = buffer_pool
        self._notify = notify
        self._default_level = default_level
        self._epoch_seconds = epoch_seconds
        self._max_inflight = max_inflight_blocks
        self._base_max_inflight = max_inflight_blocks
        self._clock = clock

        self._lock = threading.Lock()
        self._rx = bytearray()
        self._eof = False
        #: seq -> bytes | _Received | BaseException (decode): bytes from
        #: pool workers, _Received from the loop thread's identity check.
        self._decode_results: Dict[int, object] = {}
        self._decode_submitted = 0
        self._decode_emitted = 0
        #: seq -> EncodedParts | BaseException (echo re-encode or send-back).
        self._encode_results: Dict[int, object] = {}
        self._encode_submitted = 0
        self._encode_emitted = 0
        #: Buffers awaiting send, in order.
        self._out: Deque[bytes] = deque()
        self._out_offset = 0
        self._out_bytes = 0
        self._trailer_queued = False

        # Echo mode: per-flow adaptive scheme instance, created when
        # the hello names the mode (see _apply_hello).
        self.controller: Optional[AdaptiveController] = None
        self._echo_static_level: Optional[int] = None
        #: True once the hello carried an explicit ``level`` parameter;
        #: such flows keep the client's choice across config reloads.
        self._level_from_client = False

        # Fleet-control plane (server actuates via apply_control).
        self.control_weight = 1.0
        self._ctl_level: Optional[int] = None

        # Counters (loop thread only).
        self.wire_bytes_in = 0
        self.bytes_out = 0
        self.app_bytes = 0
        self.blocks_in = 0
        self.blocks_out = 0
        self.crc32 = 0
        self.opened_at = clock()
        self.last_activity = self.opened_at
        self._next_progress = PROGRESS_EVERY_BYTES
        # Rate-sample baseline for the control plane (loop thread only).
        self._rate_ts = self.opened_at
        self._rate_app = 0
        self._rate_wire = 0
        # Last closed rate window, for live gauges (/metrics, /flows).
        self.last_app_rate = 0.0
        self.last_ratio: Optional[float] = None

        self.failure: Optional[str] = None

    # -- readiness ---------------------------------------------------

    @property
    def decode_in_flight(self) -> int:
        return self._decode_submitted - self._decode_emitted

    @property
    def encode_in_flight(self) -> int:
        return self._encode_submitted - self._encode_emitted

    @property
    def _jobs_moved(self) -> int:
        """Grows with every decode submitted and every result drained."""
        return self._decode_submitted + self._decode_emitted + self._encode_emitted

    @property
    def _window_open(self) -> bool:
        """Room in the flow's one window for decodes plus re-encodes."""
        return self.decode_in_flight + self.encode_in_flight < self._max_inflight

    @property
    def wants_read(self) -> bool:
        if self._eof or self.state not in (FlowState.HANDSHAKING, FlowState.STREAMING):
            return False
        return self._window_open and self._out_bytes < MAX_WRITE_BUFFER

    @property
    def wants_write(self) -> bool:
        return bool(self._out) and self.state is not FlowState.CLOSED

    @property
    def ok(self) -> bool:
        return self.failure is None

    # -- fleet control plane (loop thread) ---------------------------

    @property
    def echo_level(self) -> int:
        """The level this flow currently re-encodes at (0 for sink)."""
        if self._echo_static_level is not None:
            return self._echo_static_level
        return self.controller.current_level if self.controller is not None else 0

    def sample_rates(
        self, now: float, min_interval: float
    ) -> Optional[Tuple[float, Optional[float]]]:
        """Close one rate-sample window; ``(app_rate, wire_ratio)``.

        Returns ``None`` while less than ``min_interval`` has elapsed
        since the previous sample, and a ``None`` ratio when no
        application bytes moved in the window (nothing to measure).
        """
        dt = now - self._rate_ts
        if dt < min_interval:
            return None
        d_app = self.app_bytes - self._rate_app
        d_wire = self.wire_bytes_in - self._rate_wire
        self._rate_ts = now
        self._rate_app = self.app_bytes
        self._rate_wire = self.wire_bytes_in
        ratio = (d_wire / d_app) if d_app > 0 else None
        self.last_app_rate = d_app / dt
        self.last_ratio = ratio
        return self.last_app_rate, ratio

    def apply_control(self, level: Optional[int], weight: float) -> bool:
        """Apply a fleet assignment to this flow; True when it changed.

        ``level`` pins the echo re-encode level through the override of
        the per-flow controller's :class:`~repro.schemes.managed.ManagedScheme`
        (``None`` returns it to adaptive);
        ``weight`` scales the flow's one window for decodes plus echo
        re-encodes — its share of the shared codec substrate — around
        its configured baseline.  A change during STREAMING is announced
        to the client as an in-band ``{"ctl": "rebalance", ...}``
        control frame.
        """
        changed = False
        if level != self._ctl_level:
            self._ctl_level = level
            if self.controller is not None:
                self.controller.scheme.set_override(level)
            changed = True
        if weight != self.control_weight:
            self.control_weight = weight
            self._max_inflight = max(1, round(self._base_max_inflight * weight))
            changed = True
        if changed and self.state is FlowState.STREAMING:
            self._queue(
                encode_control({"ctl": "rebalance", "level": level, "weight": weight})
            )
        return changed

    def reload_level(self, level: Optional[int]) -> bool:
        """Retune this live flow to a reloaded server default level.

        ``None`` means adaptive.  Flows whose hello named an explicit
        level keep the client's choice, and sink flows never encode —
        both return ``False``.  Echo flows are retuned through the
        override of the per-flow controller's scheme (the same lever
        the fleet control plane actuates), so the adaptive scheme keeps
        learning open-loop and a later return to adaptive is seamless —
        the connection itself is never touched.
        """
        self._default_level = level
        if self._level_from_client or self.mode != MODE_ECHO:
            return False
        was_adaptive = (
            self._echo_static_level is None and self.controller.scheme.override is None
        )
        before = None if was_adaptive else self.echo_level
        self._echo_static_level = None
        self.controller.scheme.set_override(level)
        now_adaptive = level is None
        return (was_adaptive != now_adaptive) or (
            not now_adaptive and before != level
        )

    def status(self) -> Dict[str, object]:
        """Operational snapshot for the admin endpoint (best effort).

        All fields are scalar attribute reads, so calling this from the
        admin thread while the loop thread advances the flow yields a
        slightly torn but always well-formed picture.
        """
        controller = self.controller
        last_decision = None
        if controller is not None and controller.trace:
            rec = controller.trace[-1]
            last_decision = {
                "epoch": rec.epoch,
                "level_before": rec.level_before,
                "level_after": rec.level_after,
                "app_rate": rec.app_rate,
            }
        return {
            "flow_id": self.flow_id,
            "peer": self.peer,
            "mode": self.mode,
            "state": self.state.value,
            "ok": self.ok,
            "failure": self.failure,
            "level": self.echo_level,
            "adaptive": controller is not None and self._echo_static_level is None,
            "level_override": controller.scheme.override if controller else None,
            "worker_weight": self.control_weight,
            "app_rate": self.last_app_rate,
            "observed_ratio": self.last_ratio,
            "app_bytes": self.app_bytes,
            "wire_bytes_in": self.wire_bytes_in,
            "bytes_out": self.bytes_out,
            "blocks_in": self.blocks_in,
            "blocks_out": self.blocks_out,
            "decode_in_flight": self.decode_in_flight,
            "encode_in_flight": self.encode_in_flight,
            "write_queue_bytes": self._out_bytes,
            "age_seconds": self._clock() - self.opened_at,
            "epochs": len(controller.trace) if controller else 0,
            "last_decision": last_decision,
        }

    # -- socket side (loop thread) -----------------------------------

    def handle_read(self) -> None:
        """Pull available bytes off the socket into the parse buffer.

        Parsing happens in :meth:`pump` (which the loop always calls
        after readiness), so a burst of reads can never submit past the
        per-flow window, and an EOF with complete-but-unparsed
        frames still buffered is not mistaken for truncation.
        """
        if self._eof or self.state in (FlowState.DRAINING, FlowState.CLOSED):
            return
        try:
            data = self.sock.recv(RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self.fail(f"recv-error: {exc}")
            return
        self.last_activity = self._clock()
        if not data:
            self._eof = True
            if self.state is FlowState.HANDSHAKING:
                self.fail("eof-during-handshake")
            return
        self.wire_bytes_in += len(data)
        self._rx.extend(data)

    def handle_write(self, quantum: int = WRITE_QUANTUM) -> int:
        """Send up to ``quantum`` queued bytes in one ``sendmsg``.

        Returns the bytes sent.  The quantum is the fairness unit: the
        server loop gives every writable flow one bounded turn per
        iteration, so a fat flow with a fast consumer cannot monopolise
        the loop thread.  The turn gathers queued buffers, at most
        :data:`IOV_MAX` of them, from the first unsent byte; each
        buffer leaves the queue once its last byte is sent.
        """
        parts = []
        room = quantum
        skip = self._out_offset
        for buf in self._out:
            size = len(buf) - skip
            if skip or size > room:
                # Only the turn's first and last buffers can be partial.
                size = min(size, room)
                buf = memoryview(buf)[skip : skip + size]
                skip = 0
            parts.append(buf)
            room -= size
            if not room or len(parts) == IOV_MAX:
                break
        if not parts:
            return 0
        try:
            sent = self.sock.sendmsg(parts)
        except (BlockingIOError, InterruptedError):
            return 0
        except OSError as exc:
            self.fail(f"send-error: {exc}")
            return 0
        left = sent
        while self._out:
            rest = len(self._out[0]) - self._out_offset
            if left < rest:
                self._out_offset += left
                break
            left -= rest
            self._out.popleft()
            self._out_offset = 0
        if sent:
            self.bytes_out += sent
            self.last_activity = self._clock()
            self._out_bytes -= sent
        return sent

    # -- handshake ---------------------------------------------------

    def _parse_hello(self) -> None:
        parsed = parse_hello(self._rx)
        if parsed is None:
            return
        hello, consumed = parsed
        del self._rx[:consumed]
        self._apply_hello(hello.mode, hello.params)
        self._queue(encode_control({"ok": True, "flow_id": self.flow_id, "mode": self.mode}))
        self.state = FlowState.STREAMING

    def _apply_hello(self, mode: str, params: dict) -> None:
        self.mode = mode
        # Checked, then unused: each inbound frame echoes as one frame.
        block_size = params.get("block_size", MAX_CLIENT_BLOCK_SIZE)
        if not isinstance(block_size, int) or not 1 <= block_size <= MAX_CLIENT_BLOCK_SIZE:
            raise ProtocolError(f"bad block_size {block_size!r}")
        level = params.get("level", None)
        self._level_from_client = level is not None
        if level is None:
            self._echo_static_level = self._default_level
        elif level == "adaptive":
            self._echo_static_level = None
        elif isinstance(level, str):
            try:
                self._echo_static_level = self._levels.index_of(level)
            except (KeyError, ValueError) as exc:
                raise ProtocolError(f"unknown level {level!r}") from exc
        else:
            raise ProtocolError(f"bad level {level!r}")
        if mode == MODE_ECHO:
            # Imported here, not at module level, so a daemon that only
            # ever sees sink flows never loads the scheme zoo.
            from ..schemes.managed import ManagedScheme
            from ..schemes.rate_based import RateBasedScheme

            # The per-flow adaptive scheme instance: each flow re-decides
            # its own re-encode level from its own achieved rate.  Fleet
            # pins and level reloads set the ManagedScheme's override.
            n_levels = len(self._levels)
            self.controller = AdaptiveController(
                n_levels=n_levels,
                epoch_seconds=self._epoch_seconds,
                clock_start=self._clock(),
                scheme=ManagedScheme(RateBasedScheme(n_levels)),
            )

    def _reject_handshake(self, reason: str) -> None:
        """Best-effort error control frame, then fail the flow."""
        try:
            self.sock.send(encode_control({"ok": False, "error": reason}))
        except OSError:
            pass
        self.fail(f"handshake-rejected: {reason}")

    # -- frame parsing / decode submission ---------------------------

    def _parse_frames(self) -> None:
        while self._window_open and self.state is FlowState.STREAMING:
            have = len(self._rx)
            if have < HEADER_SIZE:
                if have and not MAGIC.startswith(bytes(self._rx[: len(MAGIC)])):
                    raise ProtocolError(f"bad block magic {bytes(self._rx[:2])!r}")
                return
            header = decode_header(self._rx)
            need = HEADER_SIZE + header.compressed_len
            if have < need:
                return
            seq = self._decode_submitted
            self._decode_submitted += 1
            if header.codec_id == 0:
                # An identity frame never becomes a pool job: it is
                # checked right here, in place, and taken at once unless
                # a pool job ahead of it is still decoding.
                result = self._check_identity(header, need)
                del self._rx[:need]
                if seq == self._decode_emitted:
                    self._decode_emitted += 1
                    self._take_decoded(result)
                else:
                    with self._lock:
                        self._decode_results[seq] = result
                continue
            payload = self._buffer_pool.acquire(header.compressed_len)
            payload.view[:] = memoryview(self._rx)[HEADER_SIZE:need]
            del self._rx[:need]
            try:
                # check_crc: nothing upstream of the flow has CRC'd
                # this payload; the pool releases it once consumed.
                self._codec_pool.submit_decompress(
                    header,
                    payload,
                    check_crc=True,
                    registry=self._registry,
                    span="serve.decode",
                    on_done=partial(self._decoded, seq),
                )
            except BaseException as exc:  # noqa: BLE001 - fails this flow only
                self._complete(self._decode_results, seq, exc)

    def _check_identity(self, header: BlockHeader, need: int) -> object:
        """Check the identity frame heading ``_rx``: ``_Received`` or the error.

        The same ``decode_payload`` a pool's identity job runs, under
        the same ``serve.decode`` span, on a view of the receive buffer;
        the view is released before the caller trims the buffer.
        """
        payload = memoryview(self._rx)[HEADER_SIZE:need]
        try:
            if BUS.active:
                name = self._registry.get(0).name
                with spans.span("serve.decode", worker="caller", codec=name):
                    data = decode_payload(header, payload, self._registry)
            else:
                data = decode_payload(header, payload, self._registry)
        except Exception as exc:  # noqa: BLE001 - fails this flow only
            return exc
        finally:
            payload.release()
        return _Received(header, data)

    # -- job completion (any pool thread) ----------------------------

    def _decoded(self, seq: int, exc, data) -> None:
        # A codec may return a view of its input, whose pooled buffer
        # is released before this runs; bytes pass through.
        if exc is None and not isinstance(data, bytes):
            data = bytes(data)
        self._complete(self._decode_results, seq, exc if exc is not None else data)

    def _encoded(self, seq: int, exc, header, payload) -> None:
        result = exc
        if exc is None:
            # Queued frames hold only bytes (see the module docstring).
            if not isinstance(payload, bytes):
                payload = bytes(payload)
            result = frame_payload(header, payload, vectored=True)
        self._complete(self._encode_results, seq, result)

    def _complete(self, results: Dict[int, object], seq: int, result: object) -> None:
        """Record one job outcome (result or exception) and wake the loop."""
        with self._lock:
            results[seq] = result
        self._notify(self)

    # -- state advancement (loop thread) -----------------------------

    def pump(self) -> None:
        """Drain completed codec jobs in order and advance the state.

        Repeats drain-decodes, parse, drain-encodes until a pass makes
        no progress: an identity frame is checked as it is parsed, and
        an identity re-encode completes inside its submit, so one pass
        leaves the next one work (a NO frame is checked, echoed and
        queued without leaving the loop thread).  Idempotent; called by
        the server loop after socket readiness and after every
        job-completion notification.
        """
        if self.state is FlowState.CLOSED:
            self._discard_results()
            return
        while True:
            mark = self._jobs_moved
            self._drain_decodes()
            if self.state is FlowState.CLOSED:
                return
            self._parse_buffered()
            if self.state is FlowState.CLOSED:
                return
            self._drain_encodes()
            if self.state is FlowState.CLOSED:
                return
            if self._jobs_moved == mark:
                break
        if (
            self.state is FlowState.DRAINING
            and not self._trailer_queued
            and self.decode_in_flight == 0
            and self.encode_in_flight == 0
        ):
            self._queue(encode_control(self._trailer_body()))
            self._trailer_queued = True
        if self._trailer_queued and not self._out:
            self.state = FlowState.CLOSED

    def _parse_buffered(self) -> None:
        """Parse buffered bytes as far as state and the window allow."""
        try:
            if self.state is FlowState.HANDSHAKING:
                self._parse_hello()
            if self.state is FlowState.STREAMING:
                self._parse_frames()
        except ProtocolError as exc:
            if self.state is FlowState.HANDSHAKING:
                self._reject_handshake(str(exc))
            else:
                self.fail(f"bad-frame: {exc}")
            return
        except CodecError as exc:
            self.fail(f"bad-frame: {exc}")
            return
        if self.state is FlowState.STREAMING and self._eof:
            if not self._rx:
                self.state = FlowState.DRAINING
            elif self._window_open:
                # Parsing stopped for lack of bytes, not backpressure:
                # the peer half-closed mid-frame.
                self.fail(f"truncated-frame-at-eof ({len(self._rx)} bytes)")

    def _drain_decodes(self) -> None:
        while self.decode_in_flight and self.state is not FlowState.CLOSED:
            with self._lock:
                if self._decode_emitted not in self._decode_results:
                    return
                result = self._decode_results.pop(self._decode_emitted)
            self._decode_emitted += 1
            self._take_decoded(result)

    def _take_decoded(self, result: object) -> None:
        """Account the next decode result in order; echo it in echo mode."""
        if isinstance(result, BaseException):
            self.fail(f"decode-error: {result!r}")
            return
        received = result if isinstance(result, _Received) else None
        if received is not None:
            data = received.data
            # The verified frame CRC covers exactly these bytes.
            self.crc32 = crc32_combine(self.crc32, received.header.crc32, len(data))
        else:
            data = result  # type: ignore[assignment]
            self.crc32 = zlib.crc32(data, self.crc32) & 0xFFFFFFFF
        self.blocks_in += 1
        self.app_bytes += len(data)
        if self.controller is not None:
            self.controller.record(len(data))
            self.controller.poll(self._clock())
        if BUS.active and self.app_bytes >= self._next_progress:
            self._next_progress = self.app_bytes + PROGRESS_EVERY_BYTES
            BUS.publish(
                TransferProgress(
                    ts=BUS.now(),
                    source=f"serve.flow{self.flow_id}",
                    bytes_in=self.wire_bytes_in,
                    bytes_out=self.bytes_out,
                    ratio=self.wire_bytes_in / self.app_bytes
                    if self.app_bytes
                    else 1.0,
                )
            )
        if self.mode == MODE_ECHO:
            codec = self._echo_codec()
            if received is not None and _is_identity(codec):
                self._send_back(received)
            else:
                self._submit_echo(data, codec)

    def _echo_codec(self) -> Codec:
        return self._levels.codec(self.echo_level)

    def _send_back(self, received: _Received) -> None:
        """Echo an identity frame's payload, at the next encode seq.

        A NullCodec re-encode of the payload would keep its lengths and
        CRC and pack flags 0 (a stored-fallback frame arrives with flags
        1), so the payload goes back under that header, freshly packed.
        """
        header = received.header
        if header.flags:
            header = header._replace(flags=0)
        block = frame_payload(header, received.data, vectored=True)
        seq = self._encode_submitted
        self._encode_submitted += 1
        if seq == self._encode_emitted:
            # Nothing ahead of it in encode order: queue it to send now.
            self._encode_emitted += 1
            self._queue_frame(block)
        else:
            with self._lock:
                self._encode_results[seq] = block

    def _submit_echo(self, data: bytes, codec: Codec) -> None:
        seq = self._encode_submitted
        self._encode_submitted += 1
        try:
            self._codec_pool.submit_compress(
                data,
                codec,
                span="serve.encode",
                on_done=partial(self._encoded, seq),
            )
        except BaseException as exc:  # noqa: BLE001 - fails this flow only
            self._complete(self._encode_results, seq, exc)

    def _drain_encodes(self) -> None:
        while self.encode_in_flight:
            with self._lock:
                if self._encode_emitted not in self._encode_results:
                    return
                result = self._encode_results.pop(self._encode_emitted)
            self._encode_emitted += 1
            if isinstance(result, BaseException):
                self.fail(f"encode-error: {result!r}")
                return
            self._queue_frame(result)

    def _trailer_body(self) -> dict:
        return {
            "ok": True,
            "flow_id": self.flow_id,
            "mode": self.mode,
            "app_bytes": self.app_bytes,
            "wire_bytes_in": self.wire_bytes_in,
            "blocks_in": self.blocks_in,
            "blocks_out": self.blocks_out,
            "crc32": self.crc32,
            "epochs": len(self.controller.trace) if self.controller else 0,
        }

    # -- teardown ----------------------------------------------------

    def fail(self, reason: str) -> None:
        """Mark the flow failed and drop everything still queued."""
        if self.failure is None:
            self.failure = reason
        self.state = FlowState.CLOSED
        self._out.clear()
        self._out_offset = 0
        self._out_bytes = 0
        self._discard_results()

    def _discard_results(self) -> None:
        """Drop results that will never be emitted."""
        with self._lock:
            decode_results, self._decode_results = self._decode_results, {}
            encode_results, self._encode_results = self._encode_results, {}
        self._decode_emitted += len(decode_results)
        self._encode_emitted += len(encode_results)

    # -- helpers -----------------------------------------------------

    def _queue(self, buf: bytes) -> None:
        self._out.append(buf)
        self._out_bytes += len(buf)

    def _queue_frame(self, block: EncodedParts) -> None:
        """Queue one echo frame's header and payload to send."""
        self.blocks_out += 1
        self._queue(block.header_bytes)
        self._queue(block.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.flow_id} {self.mode or '?'} {self.state.value}"
            f" in={self.app_bytes} out={self.bytes_out}>"
        )
