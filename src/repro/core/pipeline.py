"""Threaded block-compression pipeline with strict in-order framing.

The real-I/O writers historically compressed every 128 KB block on the
sender thread, so a HEAVY/LZMA level starved the socket between blocks.
CPython's ``zlib``/``bz2``/``lzma`` all release the GIL while they run,
which means plain threads recover genuine compression parallelism on
multi-core hosts — no processes, no serialization of the payloads.

:class:`ParallelBlockEncoder` fans blocks out to N worker threads and
reassembles the resulting frames *strictly in submission order*, so the
wire format is byte-identical to the serial
:class:`~repro.codecs.block.BlockWriter` for the same (data, codec)
sequence.  Design points:

* **Bounded submission window.**  At most ``max_in_flight`` blocks may
  be queued/compressing/awaiting emission at once; ``write_block``
  blocks (draining finished frames while it waits) when the window is
  full, so memory stays bounded and a slow sink back-pressures the
  producer exactly like the serial path.
* **Single producer, worker consumers.**  ``write_block``/``flush``/
  ``close`` must be called from one thread (the writer's thread); only
  that thread touches the sink, so sinks need not be thread-safe.
* **Errors surface at the call site.**  A worker exception is latched
  and re-raised from the next ``write_block``/``flush``/``close``; no
  further frames are written after an error so the failure is never
  silently papered over mid-stream.
* **Clean shutdown.**  ``close`` drains all in-flight blocks, then
  stops and joins every worker.  It is idempotent.

:class:`ParallelBlockDecoder` is the receive-side mirror: a read-ahead
**fetcher thread** pulls framed blocks off the source doing only the
cheap, inherently serial work (header parse + CRC), fans the payloads to
N decompress workers, and ``read_block`` reassembles plaintext strictly
in order — byte-identical to the serial
:class:`~repro.codecs.block.BlockReader`.  The same bounded-window,
error-latching and shutdown rules apply, mirrored for the read
direction:

* **Bounded read-ahead window.**  The fetcher stops at most
  ``max_in_flight`` frames ahead of the consumer, so a slow consumer
  back-pressures the fetcher and memory stays bounded.
* **Single consumer.**  ``read_block``/``close``/``abort`` must be
  called from one thread; only the fetcher touches the source.
* **Errors surface at the call site.**  A fetcher or worker exception
  is latched; ``read_block`` first drains every block *before* the
  failed one (exactly the prefix the serial reader would have
  returned), then re-raises.
* **Resync composition.**  With ``resync=True`` the fetcher runs the
  :class:`~repro.core.recovery.ResyncFrameScanner`, so workers never
  see damaged frames: corruption is skipped and counted during the
  fetch, and decoding continues.

The decoder accepts a :class:`~repro.core.buffers.BufferPool` to
recycle payload buffers instead of allocating one per block.

Both pipelines hand their codec jobs to a :class:`CodecThreadPool`
through two typed calls, ``submit_compress``/``submit_decompress``,
each with an ``on_done`` completion callback.  By default a pipeline
owns a private pool sized by ``workers``.  Passing ``codec_pool=``
instead makes it one of many clients of a *shared* pool, which it never
closes: the :mod:`repro.serve` daemon runs every flow's jobs on one
shared pool this way.  Ordering, windowing, error latching and byte
identity stay per pipeline; only where the codec call executes differs.

**The pool contract.**  The pipelines and the daemon's flows rely on
these rules:

* ``on_done(exc, header, payload)`` / ``on_done(exc, data)`` runs on a
  worker thread (an identity job's on the caller, see below) once per
  accepted job: the codec's error, or its result.  The pool never
  copies a result: ``payload`` is the codec's own output, or for a
  stored fallback the submitted ``data`` itself.
* A decompress payload may be a pooled buffer
  (:class:`~repro.core.buffers.PooledBuffer`); the pool then owns it
  and releases it exactly once — after the job has consumed it, when
  the submit is refused, or when ``terminate()`` drops the job.
* A refused submit (closed pool) raises at the caller; ``close()``
  drains, ``terminate()`` fails what is still queued.
* ``span`` names the telemetry span the job runs under, tagged with the
  worker index and codec.
* **Identity jobs run on the caller.**  A job whose codec is the
  identity — ``submit_decompress`` of a codec-id-0 frame, or
  ``submit_compress`` with a codec whose exact type is
  :class:`~repro.codecs.null_codec.NullCodec` — does its CRC, copy and
  framing work on the submitting thread, and ``on_done`` runs there
  before the submit returns.  Its only work is that CRC and one copy,
  so a trip through a queue would cost far more than the job itself.
  It is refused exactly like a queued job, before any work runs, opens
  the caller-named span (tagged ``worker="caller"``), and counts in
  ``jobs_submitted``/``jobs_completed`` and in ``caller_runs``.
  Subclasses and other id-0 codecs still run on workers: only the stock
  identity is known to be cheap.  The rule serves the pipelines; the
  serve daemon's flows check codec-id-0 frames themselves and never
  submit them (see :mod:`repro.serve.flow`), so in the daemon it runs
  only when a compressed frame is echoed at level NO.

Telemetry is zero-cost when idle: queue-depth gauges
(:class:`~repro.telemetry.events.PipelineQueueDepth`), per-worker
compress/decompress spans (``pipeline.compress`` /
``pipeline.decompress``) and the decoder's close-time pool snapshot
(:class:`~repro.telemetry.events.BufferPoolStats`) are only constructed
when a bus subscriber is attached.
"""

from __future__ import annotations

import logging
import queue
import threading
from functools import partial
from typing import BinaryIO, Callable, Iterator, List, Optional, Tuple, Union

from ..codecs.base import Codec
from ..codecs.block import (
    HEADER_SIZE,
    BlockData,
    BlockHeader,
    BlockReader,
    BlockWriter,
    EncodedBlock,
    _compress_payload,
    decode_payload,
    frame_payload,
    write_frames,
)
from ..codecs.errors import CodecError
from ..codecs.null_codec import NullCodec
from ..codecs.registry import DEFAULT_REGISTRY, CodecRegistry
from ..telemetry import spans
from ..telemetry.events import BUS, BufferPoolStats, PipelineQueueDepth
from .buffers import BufferPool, PooledBuffer
from .recovery import ResyncBlockReader, ResyncFrameScanner

__all__ = [
    "CodecThreadPool",
    "ParallelBlockEncoder",
    "ParallelBlockDecoder",
    "make_block_encoder",
    "make_block_decoder",
    "DEFAULT_MAX_IN_FLIGHT_PER_WORKER",
]

#: Submission-window depth per worker: enough to keep every worker busy
#: while the producer refills, small enough to bound frame memory.
DEFAULT_MAX_IN_FLIGHT_PER_WORKER = 2

#: Sentinel telling a worker thread to exit.
_SHUTDOWN = None

logger = logging.getLogger(__name__)


def _payload_bytes(payload) -> BlockData:
    """The byte buffer behind a submitted payload, pooled or plain."""
    return payload.view if isinstance(payload, PooledBuffer) else payload


def _release_payload(payload) -> None:
    """Give a pooled payload back; plain buffers belong to the caller."""
    if isinstance(payload, PooledBuffer):
        payload.release()


def _is_identity(codec) -> bool:
    """Does a compress job with ``codec`` run on the caller?  (Exact type.)"""
    return type(codec) is NullCodec


class CodecThreadPool:
    """N worker threads executing codec jobs for any number of clients.

    The codec pool, and the piece that lets *many* pipelines (or
    :mod:`repro.serve` flows) share one set of threads: owners submit
    typed jobs — :meth:`submit_compress` / :meth:`submit_decompress`,
    under the contract in the module docstring — the pool runs each on
    whichever worker frees up first and hands the outcome to the job's
    ``on_done`` on that worker.  An identity job (the stock
    ``NullCodec``, or a codec-id-0 frame) is the exception: it runs on
    the submitting thread, which is cheaper than any queue hop, and is
    counted in ``caller_runs``.  In-order reassembly, error latching and
    windowing stay with the owner, where the ordering requirements live.

    Both typed calls ride on :meth:`submit`, which queues a plain
    ``fn(worker_index)`` callable.  Such a job must not raise; one that
    does anyway (an owner bug) is counted in ``job_failures`` and
    recorded in ``last_internal_error``, and the worker thread survives,
    because one misbehaving flow must never take down the threads every
    other flow runs on.

    ``close`` drains already-queued jobs, then stops and joins every
    worker; ``terminate`` fails the typed jobs still queued instead of
    running them.  Both are idempotent; a submit after either raises.
    """

    def __init__(self, workers: int, *, name: str = "repro-codec") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.name = name
        self._jobs: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._closed = False
        #: Set by terminate(): queued typed jobs fail instead of running.
        self._dropping = False
        #: Lifetime job counters (under ``_lock``); exposed via
        #: :meth:`stats` so shared-pool users can verify every flow
        #: really ran through this one pool.
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.job_failures = 0
        self.caller_runs = 0
        self.callback_failures = 0
        self.last_internal_error: Optional[BaseException] = None
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(i,),
                name=f"{name}-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def workers(self) -> int:
        return len(self._threads)

    @property
    def closed(self) -> bool:
        return self._closed

    def qsize(self) -> int:
        """Jobs queued but not yet picked up by a worker."""
        return self._jobs.qsize()

    @property
    def in_flight(self) -> int:
        """Jobs submitted but not yet finished (queued + running)."""
        with self._lock:
            return self.jobs_submitted - self.jobs_completed

    def submit(self, fn: Callable[[int], None]) -> None:
        """Queue ``fn(worker_index)`` for execution on some worker."""
        with self._lock:
            self._admit()
            self._jobs.put(fn)

    def _admit(self) -> None:
        """Refuse a job on a closed pool, else count it (caller holds ``_lock``)."""
        if self._closed:
            raise ValueError(f"{self.name}: pool is closed")
        self.jobs_submitted += 1

    def _run_callback(self, on_done: Callable, *args) -> None:
        """Deliver one job outcome to its owner's ``on_done``.

        A callback that raises is its owner's bug: it is counted in
        ``callback_failures`` and logged, and the thread that delivered
        it keeps serving every other owner.
        """
        try:
            on_done(*args)
        except BaseException as exc:  # noqa: BLE001 - pool thread must survive
            with self._lock:
                self.callback_failures += 1
                self.last_internal_error = exc
            logger.exception("%s: on_done callback failed", self.name)

    def _run_on_caller(
        self,
        kind: str,
        work: Callable[[], tuple],
        codec_name: Callable[[], str],
        *,
        on_done: Callable,
        span: Optional[str],
        payload=None,
    ) -> None:
        """Run one identity job on the submitting thread (module docstring).

        :meth:`_admit` refuses it as it would a queued job, before any
        work runs; a pooled ``payload`` is released either way.  ``kind``
        is ``"c"`` or ``"d"``; ``work()`` returns the outcome ``on_done``
        receives after ``exc``, and ``codec_name()`` tags the span.
        """
        try:
            with self._lock:
                self._admit()
                self.caller_runs += 1
        except BaseException:
            _release_payload(payload)
            raise
        exc = None
        outcome: tuple = (None, None) if kind == "c" else (None,)
        try:
            if span is not None and BUS.active:
                with spans.span(span, worker="caller", codec=codec_name()):
                    outcome = work()
            else:
                outcome = work()
        except BaseException as err:  # noqa: BLE001 - delivered to on_done
            exc = err
        finally:
            _release_payload(payload)
        with self._lock:
            self.jobs_completed += 1
            if exc is not None:
                self.job_failures += 1
        self._run_callback(on_done, exc, *outcome)

    def submit_compress(
        self,
        data: BlockData,
        codec: Codec,
        *,
        on_done: Callable[
            [Optional[BaseException], Optional[BlockHeader], Optional[BlockData]], None
        ],
        span: Optional[str] = None,
    ) -> None:
        """Compress ``data`` with ``codec`` on a worker thread.

        ``on_done(exc, header, payload)`` runs on that worker (on the
        caller for an identity codec): either ``exc`` is set, or
        ``header`` is the frame header and ``payload`` the (possibly
        stored-fallback) payload.  ``span`` names the telemetry span
        around the codec call.
        """
        if _is_identity(codec):
            self._run_on_caller(
                "c",
                lambda: _compress_payload(data, codec),
                lambda: codec.name,
                on_done=on_done,
                span=span,
            )
            return

        def job(index: int) -> None:
            exc = header = payload = None
            try:
                if self._dropping:
                    exc = self._dropped()
                elif span is not None and BUS.active:
                    with spans.span(span, worker=index, codec=codec.name):
                        header, payload = _compress_payload(data, codec)
                else:
                    header, payload = _compress_payload(data, codec)
            except BaseException as err:  # noqa: BLE001 - delivered to on_done
                exc = self._failed(err)
            self._run_callback(on_done, exc, header, payload)

        self.submit(job)

    def submit_decompress(
        self,
        header: BlockHeader,
        payload,
        *,
        check_crc: bool = False,
        registry: CodecRegistry = DEFAULT_REGISTRY,
        on_done: Callable[[Optional[BaseException], Optional[bytes]], None],
        span: Optional[str] = None,
    ) -> None:
        """Decompress one frame payload on a worker thread.

        ``on_done(exc, data)`` runs on that worker (on the caller for a
        codec-id-0 frame).  A pooled ``payload`` is released once
        decoded (or refused, or dropped).  ``check_crc`` defaults to
        False because the block fetchers verify the CRC before handing
        the payload over.
        """
        view = _payload_bytes(payload)
        if header.codec_id == 0:
            self._run_on_caller(
                "d",
                lambda: (decode_payload(header, view, registry, check_crc=check_crc),),
                lambda: registry.get(0).name,
                on_done=on_done,
                span=span,
                payload=payload,
            )
            return

        def job(index: int) -> None:
            exc = data = None
            try:
                if self._dropping:
                    exc = self._dropped()
                elif span is not None and BUS.active:
                    name = registry.get(header.codec_id).name
                    with spans.span(span, worker=index, codec=name):
                        data = decode_payload(
                            header, view, registry, check_crc=check_crc
                        )
                else:
                    data = decode_payload(header, view, registry, check_crc=check_crc)
            except BaseException as err:  # noqa: BLE001 - delivered to on_done
                exc = self._failed(err)
            finally:
                _release_payload(payload)
            self._run_callback(on_done, exc, data)

        try:
            self.submit(job)
        except BaseException:
            _release_payload(payload)
            raise

    def _failed(self, exc: BaseException) -> BaseException:
        with self._lock:
            self.job_failures += 1
        return exc

    def _dropped(self) -> BaseException:
        return RuntimeError(f"{self.name}: pool terminated with the job queued")

    def _worker(self, index: int) -> None:
        while True:
            job = self._jobs.get()
            if job is _SHUTDOWN:
                return
            try:
                job(index)
            except BaseException as exc:  # noqa: BLE001 - owner bug, keep worker alive
                with self._lock:
                    self.job_failures += 1
                    self.last_internal_error = exc
            finally:
                with self._lock:
                    self.jobs_completed += 1

    def close(self) -> None:
        """Drain queued jobs, then stop and join the workers.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._threads:
                self._jobs.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join()

    def terminate(self) -> None:
        """Teardown for abort paths: queued typed jobs are failed, not run.

        Each dropped job's ``on_done`` gets an error and its pooled
        payload is released; jobs already running finish, then every
        worker is joined.  Idempotent, and safe after :meth:`close`.
        """
        self._dropping = True
        self.close()

    def stats(self) -> dict:
        """Counter snapshot."""
        with self._lock:
            return {
                "workers": len(self._threads),
                "jobs_submitted": self.jobs_submitted,
                "jobs_completed": self.jobs_completed,
                "job_failures": self.job_failures,
                "queued": self._jobs.qsize(),
                "caller_runs": self.caller_runs,
                "callback_failures": self.callback_failures,
            }

    def __enter__(self) -> "CodecThreadPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _window(
    codec_pool: Optional[CodecThreadPool], workers: int, max_in_flight: Optional[int]
) -> Tuple[int, int]:
    """Validated ``(workers, max_in_flight)`` of one pipeline.

    Runs before a pipeline starts its own pool, so bad arguments never
    leak threads.  A shared pool is never closed by its clients;
    ``workers`` (when given) then only sizes the default window.
    """
    if codec_pool is not None:
        workers = workers if workers >= 1 else codec_pool.workers
    elif workers < 1:
        raise ValueError("workers must be >= 1")
    if max_in_flight is None:
        max_in_flight = DEFAULT_MAX_IN_FLIGHT_PER_WORKER * workers
    if codec_pool is None and max_in_flight < workers:
        raise ValueError("max_in_flight must be >= workers")
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    return workers, max_in_flight


class ParallelBlockEncoder:
    """Compress framed blocks on a codec pool, emit them in order.

    Drop-in replacement for :class:`~repro.codecs.block.BlockWriter`
    on the write side of the stream layer: same ``write_block(data,
    codec)`` call, same ``blocks_written``/``bytes_in``/``bytes_out``
    counters, same wire bytes — plus ``flush``/``close`` that drain the
    in-flight window.  See the module docstring for the concurrency
    contract.
    """

    def __init__(
        self,
        sink: BinaryIO,
        *,
        workers: int = 0,
        max_in_flight: Optional[int] = None,
        source: str = "pipeline",
        codec_pool: Optional[CodecThreadPool] = None,
    ) -> None:
        workers, max_in_flight = _window(codec_pool, workers, max_in_flight)
        self._owns_pool = codec_pool is None
        if codec_pool is None:
            codec_pool = CodecThreadPool(workers, name="repro-pipeline")
        self._codec_pool = codec_pool
        self._sink = sink
        # Vectored sinks take (header, payload) parts and the frame is
        # never assembled; otherwise frames go out contiguous.
        self._vectored = getattr(sink, "writev", None) is not None
        self._source = source
        self._max_in_flight = max_in_flight
        self._cond = threading.Condition()
        #: seq -> EncodedBlock | EncodedParts, filled by completions,
        #: drained in order by the producer thread (guarded by ``_cond``).
        self._results: dict = {}
        self._error: Optional[BaseException] = None
        self._next_submit = 0
        self._next_emit = 0
        self._closed = False
        #: After close/abort: jobs still queued on a shared pool must
        #: drop their results instead of latching them.
        self._discard = False
        self.blocks_written = 0
        #: Uncompressed bytes *submitted* (counted at submission so the
        #: stream layer's accounting includes in-flight blocks).
        self.bytes_in = 0
        #: Framed bytes handed to the sink (counted at emission).
        self.bytes_out = 0

    # -- introspection ----------------------------------------------

    @property
    def workers(self) -> int:
        return self._codec_pool.workers

    @property
    def codec_pool(self) -> CodecThreadPool:
        """The codec pool this encoder's jobs run on."""
        return self._codec_pool

    @property
    def in_flight(self) -> int:
        """Blocks submitted but not yet framed to the sink."""
        return self._next_submit - self._next_emit

    # -- completion (pool thread) -----------------------------------

    def _done(self, seq: int, exc, header, payload) -> None:
        """Frame one finished block, or latch its error."""
        if exc is None:
            block = frame_payload(header, payload, vectored=self._vectored)
        with self._cond:
            if exc is not None:
                if self._error is None:
                    self._error = exc
            elif self._discard:
                return  # nobody will emit this frame
            else:
                self._results[seq] = block
            self._cond.notify_all()

    # -- producer side ----------------------------------------------

    def _collect_ready(self, *, wait_for_head: bool) -> List[EncodedBlock]:
        """Pop the contiguous run of finished frames at the emit head.

        With ``wait_for_head`` the call blocks until the head frame (or
        an error) arrives.  A latched worker error is re-raised here —
        this is the single place exceptions cross back to the caller.
        """
        with self._cond:
            if wait_for_head:
                while (
                    self._error is None
                    and self._next_emit < self._next_submit
                    and self._next_emit not in self._results
                ):
                    self._cond.wait()
            if self._error is not None:
                raise self._error
            ready: List[EncodedBlock] = []
            while self._next_emit in self._results:
                ready.append(self._results.pop(self._next_emit))
                self._next_emit += 1
            return ready

    def _write_out(self, blocks: List[EncodedBlock]) -> None:
        """Write finished frames to the sink (producer thread, no lock).

        A vectored sink takes the whole run in one ``writev``.
        """
        if blocks:
            self.bytes_out += write_frames(self._sink, blocks)
            self.blocks_written += len(blocks)

    def write_block(self, data: BlockData, codec: Codec) -> None:
        """Queue ``data`` for compression with ``codec``.

        The frame is written to the sink asynchronously but strictly in
        submission order.  ``data`` must not be mutated until the block
        has been emitted (pass ``bytes`` or a view of an immutable
        buffer); the stream layer's detached-snapshot carving satisfies
        this by construction.  A pool that refuses the job raises here.
        """
        if self._closed:
            raise ValueError("encoder is closed")
        self._write_out(self._collect_ready(wait_for_head=False))
        while self._next_submit - self._next_emit >= self._max_in_flight:
            self._write_out(self._collect_ready(wait_for_head=True))
        seq = self._next_submit
        self._codec_pool.submit_compress(
            data,
            codec,
            span="pipeline.compress",
            on_done=partial(self._done, seq),
        )
        self._next_submit += 1
        self.bytes_in += data.nbytes if isinstance(data, memoryview) else len(data)
        if BUS.active:
            BUS.publish(
                PipelineQueueDepth(
                    ts=BUS.now(),
                    source=self._source,
                    depth=self._codec_pool.qsize(),
                    in_flight=self._next_submit - self._next_emit,
                    workers=self._codec_pool.workers,
                )
            )

    #: Every block is queued here: frames go out as they finish, in order.
    queue_block = write_block

    def write_ready(self) -> None:
        """Write the finished run at the emit head, without waiting."""
        self._write_out(self._collect_ready(wait_for_head=False))

    def flush(self) -> None:
        """Block until every submitted block has been framed and written."""
        while self._next_emit < self._next_submit:
            self._write_out(self._collect_ready(wait_for_head=True))

    def close(self) -> None:
        """Drain in-flight blocks, then stop and join the workers.

        Idempotent.  A latched worker error is re-raised after the
        workers have been joined, so the pool never leaks even on the
        failure path.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.flush()
        finally:
            self._shutdown_workers(drain=True)

    def abort(self) -> None:
        """Stop and join the workers without emitting pending frames.

        The error-path counterpart of :meth:`close`: when the sink is
        already known to be broken (socket reset, receiver died),
        draining would either raise again or block on a dead peer.
        ``abort`` discards everything in flight, never touches the
        sink, and swallows the latched worker error — the caller is
        already propagating the original failure.  Idempotent, and safe
        after ``close``.
        """
        self._closed = True
        self._shutdown_workers(drain=False)
        with self._cond:
            self._next_emit = self._next_submit
            self._error = None

    def _shutdown_workers(self, *, drain: bool) -> None:
        # From here on any job still queued (possible when the pool is
        # shared, or on the owned-pool error path) drops its result.
        with self._cond:
            self._discard = True
        if self._owns_pool:
            if drain:
                self._codec_pool.close()
            else:
                # The sink is already broken: never wait on queued work.
                self._codec_pool.terminate()
        with self._cond:
            self._results.clear()

    def __enter__(self) -> "ParallelBlockEncoder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_block_encoder(
    sink: BinaryIO,
    *,
    workers: int = 1,
    max_in_flight: Optional[int] = None,
    source: str = "pipeline",
    codec_pool: Optional[CodecThreadPool] = None,
) -> Union[BlockWriter, ParallelBlockEncoder]:
    """Serial or parallel block encoder behind one interface.

    ``workers=1`` returns the plain serial
    :class:`~repro.codecs.block.BlockWriter` — byte-for-byte and
    code-path-for-code-path today's behaviour, with zero threading
    overhead.  ``workers>1`` returns a :class:`ParallelBlockEncoder`.
    ``codec_pool`` routes compress jobs to a shared codec pool (always
    the parallel class then, whatever ``workers`` says) instead of one
    owned by this encoder.
    """
    if codec_pool is None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers == 1:
            return BlockWriter(sink)
    elif workers == 1:
        workers = 0  # the shared pool's size sets the default window
    return ParallelBlockEncoder(
        sink,
        workers=workers,
        max_in_flight=max_in_flight,
        source=source,
        codec_pool=codec_pool,
    )


class _SkippedFrame:
    """Placeholder result for a frame dropped by a resync-mode worker."""

    __slots__ = ("frame_len",)

    def __init__(self, frame_len: int) -> None:
        self.frame_len = frame_len


class ParallelBlockDecoder:
    """Decompress framed blocks on a codec pool, yield them in order.

    Drop-in replacement for :class:`~repro.codecs.block.BlockReader`
    (and, with ``resync=True``, for
    :class:`~repro.core.recovery.ResyncBlockReader`): same
    ``read_block()``/iteration protocol, same
    ``blocks_read``/``bytes_in``/``bytes_out`` (and
    ``blocks_skipped``/``bytes_skipped``) counters, byte-identical
    output.  See the module docstring for the concurrency contract;
    call :meth:`close` (or use it as a context manager) so the threads
    are joined deterministically.

    In resync mode the fetcher runs the
    :class:`~repro.core.recovery.ResyncFrameScanner`, so only CRC-valid
    frames ever reach the workers.  The one semantic difference from
    the serial resync reader is deliberately tiny: a frame whose CRC
    matched but whose payload still fails to decompress (possible only
    via checksum collision or a codec-registry mismatch) is counted as
    one skipped block instead of triggering a byte-by-byte rescan —
    the fetcher has already read past it.
    """

    def __init__(
        self,
        source: BinaryIO,
        registry: CodecRegistry = DEFAULT_REGISTRY,
        *,
        workers: int = 0,
        max_in_flight: Optional[int] = None,
        resync: bool = False,
        pool: Optional[BufferPool] = None,
        event_source: str = "decode-pipeline",
        codec_pool: Optional[CodecThreadPool] = None,
    ) -> None:
        workers, max_in_flight = _window(codec_pool, workers, max_in_flight)
        self._owns_pool = codec_pool is None
        if codec_pool is None:
            codec_pool = CodecThreadPool(workers, name="repro-decode")
        self._codec_pool = codec_pool
        self._registry = registry
        self._resync = resync
        self._pool = pool
        self._event_source = event_source
        self._scanner: Optional[ResyncFrameScanner] = None
        self._reader: Optional[BlockReader] = None
        if resync:
            self._scanner = ResyncFrameScanner(source, event_source=event_source)
        else:
            self._reader = BlockReader(source, registry, pool=pool)
        self._cond = threading.Condition()
        #: seq -> decoded bytes | _SkippedFrame, filled by workers,
        #: drained in order by the consumer (guarded by ``_cond``).
        self._results: dict = {}
        self._error: Optional[BaseException] = None
        #: Seq of the earliest failed frame — the consumer drains every
        #: block before it (the serial reader's good prefix), *then*
        #: raises.
        self._error_seq: Optional[int] = None
        #: Frames handed to workers so far / next seq the consumer emits.
        self._fetched = 0
        self._next_emit = 0
        self._fetch_done = False
        self._stop = False
        self._closed = False
        #: After abort/close: jobs still queued on a shared pool drop
        #: their frames instead of decoding and latching them.
        self._discard = False
        #: Read-ahead permits: the fetcher takes one per frame, the
        #: consumer returns it once the block is emitted (or skipped).
        self._window = threading.Semaphore(max_in_flight)
        self.blocks_read = 0
        self.bytes_out = 0
        #: Resync-mode frames dropped by workers post-CRC (see class
        #: docstring); folded into ``blocks_skipped``/``bytes_skipped``.
        self._worker_skipped_blocks = 0
        self._worker_skipped_bytes = 0
        self._fetcher = threading.Thread(
            target=self._fetch_loop, name="repro-decode-fetch", daemon=True
        )
        self._fetcher.start()

    # -- introspection ----------------------------------------------

    @property
    def workers(self) -> int:
        return self._codec_pool.workers

    @property
    def codec_pool(self) -> CodecThreadPool:
        """The codec pool this decoder's jobs run on."""
        return self._codec_pool

    @property
    def bytes_in(self) -> int:
        """Raw stream bytes consumed by the fetcher."""
        if self._scanner is not None:
            return self._scanner.bytes_in
        return self._reader.bytes_in

    @property
    def blocks_skipped(self) -> int:
        """Damaged regions skipped (resync mode; 0 in strict mode)."""
        scanned = self._scanner.blocks_skipped if self._scanner is not None else 0
        return scanned + self._worker_skipped_blocks

    @property
    def bytes_skipped(self) -> int:
        """Damaged/undecodable bytes discarded (resync mode)."""
        scanned = self._scanner.bytes_skipped if self._scanner is not None else 0
        return scanned + self._worker_skipped_bytes

    # -- fetcher side -----------------------------------------------

    def _fetch_one(self):
        """Next ``(header, payload buffer)`` off the source, or None.

        Strict mode delegates to :meth:`BlockReader.read_frame`
        (CRC verified there; corruption raises).  Resync mode scans for
        the next CRC-valid frame and detaches its payload from the scan
        buffer — into a pool slab when we have a pool — so the scanner
        can keep sliding while workers decompress.
        """
        if self._reader is not None:
            return self._reader.read_frame()
        header = self._scanner.next_frame()
        if header is None:
            return None
        view = self._scanner.payload_view()
        try:
            if self._pool is not None:
                payload = self._pool.acquire(view.nbytes)
                payload.view[:] = view
            else:
                payload = bytearray(view)
        finally:
            view.release()
        self._scanner.accept()
        return header, payload

    def _fetch_loop(self) -> None:
        while True:
            self._window.acquire()
            if self._stop:
                break
            try:
                frame = self._fetch_one()
            except BaseException as exc:  # noqa: BLE001 - re-raised at call site
                with self._cond:
                    self._latch_error(exc, self._fetched)
                    self._fetch_done = True
                    self._cond.notify_all()
                return
            if frame is None:
                break
            with self._cond:
                seq = self._fetched
                self._fetched += 1
            header, payload = frame
            try:
                self._codec_pool.submit_decompress(
                    header,
                    payload,
                    registry=self._registry,
                    span="pipeline.decompress",
                    on_done=partial(self._done, seq, header),
                )
            except BaseException as exc:  # noqa: BLE001 - refused by the pool
                with self._cond:
                    self._latch_error(exc, seq)
                    self._fetch_done = True
                    self._cond.notify_all()
                return
            if BUS.active:
                BUS.publish(
                    PipelineQueueDepth(
                        ts=BUS.now(),
                        source=self._event_source,
                        depth=self._codec_pool.qsize(),
                        in_flight=seq + 1 - self._next_emit,
                        workers=self._codec_pool.workers,
                    )
                )
        with self._cond:
            self._fetch_done = True
            self._cond.notify_all()

    # -- completion (pool thread) -----------------------------------

    def _latch_error(self, exc: BaseException, seq: int) -> None:
        """Record the earliest-seq failure (caller holds ``_cond``)."""
        if self._error_seq is None or seq < self._error_seq:
            self._error = exc
            self._error_seq = seq

    def _done(self, seq: int, header: BlockHeader, exc, data) -> None:
        """Store one decoded block, a resync skip, or the error.

        The fetcher verified the CRC, so in resync mode a codec failure
        here is post-checksum: the frame counts as skipped and the
        stream goes on (see the class docstring).
        """
        if exc is None:
            result = data if isinstance(data, bytes) else bytes(data)
        elif self._resync and isinstance(exc, CodecError):
            result = _SkippedFrame(HEADER_SIZE + header.compressed_len)
        else:
            result = None
        with self._cond:
            if self._discard:
                return
            if result is None:
                self._latch_error(exc, seq)
            else:
                self._results[seq] = result
            self._cond.notify_all()

    # -- consumer side ----------------------------------------------

    def read_block(self) -> Optional[bytes]:
        """Next decoded block in stream order; ``None`` at end of stream.

        Blocks until the in-order head is decompressed.  A latched
        fetcher/worker error is raised only once every block before the
        failure point has been returned, matching the serial reader's
        "good prefix, then raise" behaviour.
        """
        while True:
            with self._cond:
                while True:
                    if self._next_emit in self._results:
                        item = self._results.pop(self._next_emit)
                        self._next_emit += 1
                        break
                    if self._error_seq is not None and self._next_emit >= self._error_seq:
                        raise self._error
                    if self._fetch_done and self._next_emit >= self._fetched:
                        return None
                    self._cond.wait()
            self._window.release()
            if isinstance(item, _SkippedFrame):
                self._worker_skipped_blocks += 1
                self._worker_skipped_bytes += item.frame_len
                continue
            self.blocks_read += 1
            self.bytes_out += len(item)
            return item

    def close(self) -> None:
        """Stop and join the fetcher and workers.  Idempotent.

        Unread blocks are discarded — the read-side mirror of the
        encoder's ``abort``: teardown never blocks on decoding data the
        caller has decided not to consume.  A latched error is *not*
        re-raised here; errors belong to :meth:`read_block`.
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown_threads()
        if self._scanner is not None:
            self._scanner.finish()
        if self._pool is not None and BUS.active:
            BUS.publish(
                BufferPoolStats(
                    ts=BUS.now(), source=self._event_source, **self._pool.stats()
                )
            )

    def abort(self) -> None:
        """Teardown without telemetry: the error-path twin of :meth:`close`.

        Safe when the source is already known to be broken; never
        touches the bus so failure handling stays allocation-free.
        Drops any latched error — the caller is already propagating the
        original failure.
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown_threads()
        with self._cond:
            self._error = None
            self._error_seq = None

    def _shutdown_threads(self) -> None:
        self._stop = True
        with self._cond:
            self._discard = True
        # Wake the fetcher if it is parked on a full window (one permit
        # is enough: it re-checks ``_stop`` right after acquiring).
        self._window.release()
        self._fetcher.join()
        if self._owns_pool:
            # close() discards unread work by contract, so never
            # decompress blocks nobody will read.
            self._codec_pool.terminate()
        with self._cond:
            self._results.clear()

    def __enter__(self) -> "ParallelBlockDecoder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __iter__(self) -> Iterator[bytes]:
        while True:
            block = self.read_block()
            if block is None:
                return
            yield block


def make_block_decoder(
    source: BinaryIO,
    registry: CodecRegistry = DEFAULT_REGISTRY,
    *,
    workers: int = 1,
    resync: bool = False,
    max_in_flight: Optional[int] = None,
    pool: Optional[BufferPool] = None,
    event_source: str = "decode-pipeline",
    codec_pool: Optional[CodecThreadPool] = None,
) -> Union[BlockReader, ResyncBlockReader, ParallelBlockDecoder]:
    """Serial or parallel block decoder behind one interface.

    ``workers=1`` returns the plain serial reader — the strict
    :class:`~repro.codecs.block.BlockReader` or, with ``resync=True``,
    :class:`~repro.core.recovery.ResyncBlockReader` — i.e. exactly
    today's code path with zero threading overhead.  ``workers>1``
    returns a :class:`ParallelBlockDecoder`.  ``codec_pool`` routes
    decompress jobs to a shared codec pool (always the parallel class
    then) instead of one owned by this decoder.
    """
    if codec_pool is None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers == 1:
            if resync:
                return ResyncBlockReader(source, registry)
            return BlockReader(source, registry, pool=pool)
    elif workers == 1:
        workers = 0  # the shared pool's size sets the default window
    return ParallelBlockDecoder(
        source,
        registry,
        workers=workers,
        max_in_flight=max_in_flight,
        resync=resync,
        pool=pool,
        event_source=event_source,
        codec_pool=codec_pool,
    )
