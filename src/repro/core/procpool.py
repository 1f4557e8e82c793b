"""Process-pool codec backend: codec work on real cores, not GIL slices.

The thread pools of :mod:`repro.core.pipeline` scale only because
``zlib``/``bz2``/``lzma`` release the GIL inside their C calls — the
framing, CRC, scheme bookkeeping and any pure-Python codec still
serialize on one core.  :class:`CodecProcessPool` is the escape hatch:
it fans compress/decompress jobs out to N **worker processes**, so even
pure-Python codec paths scale with cores.

Design constraints, in order:

* **Payloads never travel as pickles.**  Job payloads are copied into a
  :class:`~repro.core.buffers.SharedSlabPool` slab and cross the
  process boundary as a slab index plus a byte length; workers write
  their result back into the same slab in place.  Only when the slab
  ring is exhausted (or a payload exceeds the slab size) does a job
  degrade to inline bytes on the queue/pipe — counted in
  ``inline_jobs``, never an error.
* **Codecs rarely travel at all.**  Every stock codec is resolvable by
  its one-byte wire id from ``DEFAULT_REGISTRY`` in the worker; only a
  codec the default registry does not know (or knows under a different
  name) is pickled, once, and cached per worker.
* **Same result semantics as the thread pool.**  Workers reuse the
  exact serial codec steps (``_compress_payload``/``decode_payload``
  from :mod:`repro.codecs.block`), so output is byte-identical to the
  serial and thread paths.  Worker exceptions come back to the
  submitter's ``on_done`` callback and are re-raised at the call site
  by the owning pipeline, exactly like thread-worker errors; a worker
  that *dies* (OOM-kill, segfaulting extension) fails all in-flight
  jobs with :class:`WorkerCrashedError` instead of hanging the stream.
* **No stray state on exit.**  ``close()`` drains, joins workers and
  unlinks the shared-memory segment; ``terminate()`` is the kill-now
  twin for abort paths; a ``weakref.finalize`` on the slab pool unlinks
  the segment even if the owner leaks the pool.
* **Degrade, don't crash.**  On platforms without usable
  ``multiprocessing.shared_memory`` semantics (restricted sandboxes),
  :func:`process_backend_available` reports False and
  :func:`resolve_backend` substitutes the thread backend with a
  one-time log warning plus a
  :class:`~repro.telemetry.events.CodecBackendFallback` event.

**One contract for both pools.**  Closures cannot cross a process
boundary, so codec work is submitted as typed calls —
:meth:`~CodecProcessPool.submit_compress` and
:meth:`~CodecProcessPool.submit_decompress` — and
:class:`~repro.core.pipeline.CodecThreadPool` takes exactly the same
calls.  The rules both pools keep:

* ``on_done(exc, header, payload)`` / ``on_done(exc, data)`` runs on a
  pool thread (an identity job's on the caller, see below) once per
  accepted job: the codec's error, or its result.
  A result buffer is valid only during the call unless it is ``bytes``
  or (stored fallback) the submitted ``data`` itself; copy out anything
  else that must outlive it.
* A decompress payload may be a pooled buffer
  (:class:`~repro.core.buffers.PooledBuffer`); the pool then owns it
  and releases it exactly once — after the job has consumed it, when
  the submit is refused, or when :meth:`terminate` drops the job.
* A refused submit (closed or broken pool, foreign registry) raises at
  the caller; ``close()`` drains, ``terminate()`` fails what is still
  queued; ``backend`` names the pool and ``stats()`` has one key set.
* ``span`` names the telemetry span the job runs under, tagged with the
  worker index and codec; worker processes have no event bus, so only
  the thread pool's workers open it.
* **Identity jobs run on the caller.**  A job whose codec is the
  identity — ``submit_decompress`` of a codec-id-0 frame, or
  ``submit_compress`` with a codec whose exact type is
  :class:`~repro.codecs.null_codec.NullCodec` — does its CRC, copy and
  framing work on the submitting thread, and ``on_done`` runs there
  before the submit returns.  Its only work is that CRC and one copy,
  so a trip through a queue would cost far more than the job itself.
  It is refused exactly like a queued job, before any work runs, opens
  the caller-named span (tagged ``worker="caller"``) on either pool,
  and counts in ``jobs_submitted``/``jobs_completed`` and in
  ``caller_runs``.  Subclasses and other id-0 codecs still run on
  workers: only the stock identity is known to be cheap.  The rule
  serves the pipelines; the serve daemon's flows check codec-id-0
  frames themselves and never submit them (see
  :mod:`repro.serve.flow`), so in the daemon it runs only when a
  compressed frame is echoed at level NO.

That is what lets :class:`~repro.core.pipeline.ParallelBlockEncoder`,
:class:`~repro.core.pipeline.ParallelBlockDecoder` and the serve
daemon's flows hold either pool with one completion path.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import threading
from collections import namedtuple
from multiprocessing import connection as _mp_connection
from typing import Callable, Dict, Optional, Set, Tuple

from ..codecs.block import BlockData, BlockHeader, _compress_payload, _nbytes, decode_payload
from ..codecs.errors import CodecError
from ..codecs.null_codec import NullCodec
from ..codecs.registry import DEFAULT_REGISTRY, CodecRegistry
from ..telemetry import spans
from ..telemetry.events import BUS, CodecBackendFallback
from .buffers import DEFAULT_SLAB_SIZE, PooledBuffer, SharedSlabPool

__all__ = [
    "CodecProcessPool",
    "WorkerCrashedError",
    "ProcessBackendUnavailable",
    "process_backend_available",
    "process_backend_reason",
    "resolve_backend",
    "BACKENDS",
]

logger = logging.getLogger(__name__)

#: Recognised values for the ``backend=`` knobs.
BACKENDS = ("thread", "process")

#: Environment override for the multiprocessing start method (mostly
#: for tests and for hosts where the auto-pick misbehaves).
START_METHOD_ENV = "REPRO_PROC_START_METHOD"


class WorkerCrashedError(RuntimeError):
    """A codec worker process died without completing its jobs.

    Raised at the submitting call site (via the job's ``on_done``) for
    every job that was in flight when the worker disappeared, and from
    any submit attempted after the pool broke.
    """


class ProcessBackendUnavailable(RuntimeError):
    """The process backend cannot run on this platform/configuration."""


# --------------------------------------------------------------------------
# Feature detection and backend resolution
# --------------------------------------------------------------------------

#: Cached probe result: (available, reason-if-not).
_availability: Optional[Tuple[bool, str]] = None
_availability_lock = threading.Lock()
#: Reasons already warned about (one log line per process per reason).
_fallback_warned: Set[str] = set()
#: Cached multiprocessing context (forkserver > spawn > fork).
_mp_ctx = None


def _probe_availability() -> Tuple[bool, str]:
    """Can we actually create+attach shared memory and start processes?"""
    try:
        from multiprocessing import shared_memory
    except ImportError:
        return False, "multiprocessing.shared_memory is not importable"
    try:
        seg = shared_memory.SharedMemory(create=True, size=64)
    except (OSError, ValueError) as exc:
        return False, f"shared-memory creation failed: {exc!r}"
    try:
        seg.buf[:4] = b"ping"
        if bytes(seg.buf[:4]) != b"ping":  # pragma: no cover - paranoia
            return False, "shared-memory readback mismatch"
    finally:
        try:
            seg.close()
        finally:
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
    try:
        if not multiprocessing.get_all_start_methods():
            return False, "no multiprocessing start method available"
        _context()
    except (ValueError, OSError, RuntimeError) as exc:
        return False, f"no usable start method: {exc!r}"
    return True, ""


def process_backend_available() -> bool:
    """True iff :class:`CodecProcessPool` can run here (cached probe)."""
    global _availability
    with _availability_lock:
        if _availability is None:
            _availability = _probe_availability()
        return _availability[0]


def process_backend_reason() -> str:
    """Why the process backend is unavailable ('' when it is available)."""
    process_backend_available()
    return _availability[1]  # type: ignore[index]


def _reset_for_tests() -> None:
    """Forget the cached probe and warn-once state (test helper)."""
    global _availability
    with _availability_lock:
        _availability = None
    _fallback_warned.clear()


def _warn_fallback(source: str, reason: str) -> None:
    if reason not in _fallback_warned:
        _fallback_warned.add(reason)
        logger.warning(
            "codec backend 'process' unavailable (%s); falling back to "
            "'thread' for %s",
            reason,
            source,
        )
    if BUS.active:
        BUS.publish(
            CodecBackendFallback(
                ts=BUS.now(),
                source=source,
                requested="process",
                resolved="thread",
                reason=reason,
            )
        )


def resolve_backend(backend: str, *, source: str = "pipeline") -> str:
    """Validate a ``backend=`` knob and apply the availability fallback.

    Returns ``"thread"`` or ``"process"``.  Requesting ``"process"``
    where :func:`process_backend_available` is False resolves to
    ``"thread"`` with a one-time warning and a telemetry event instead
    of an exception — the CLI and daemon must keep working on platforms
    without SHM semantics.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown codec backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "process" and not process_backend_available():
        _warn_fallback(source, process_backend_reason())
        return "thread"
    return backend


def _context():
    """The multiprocessing context codec pools start workers from.

    Preference order: ``forkserver`` (safe with threaded parents —
    every pipeline owner runs threads — and ~ms per worker once the
    server is up), then ``spawn`` (safe, slower), then ``fork`` (fast
    but unsafe with threads; last resort only).  Override with the
    ``REPRO_PROC_START_METHOD`` environment variable.
    """
    global _mp_ctx
    if _mp_ctx is not None:
        return _mp_ctx
    override = os.environ.get(START_METHOD_ENV)
    methods = multiprocessing.get_all_start_methods()
    if override:
        method = override
    elif "forkserver" in methods:
        method = "forkserver"
    elif "spawn" in methods:
        method = "spawn"
    else:
        method = "fork"
    ctx = multiprocessing.get_context(method)
    if method == "forkserver":
        try:
            # Import this module (and the codec stack underneath it)
            # once in the fork server, so each worker forks warm.
            ctx.set_forkserver_preload(["repro.core.procpool"])
        except (ValueError, RuntimeError):  # pragma: no cover
            pass
    _mp_ctx = ctx
    return ctx


# --------------------------------------------------------------------------
# Exception transport
# --------------------------------------------------------------------------


def _dump_exc(exc: BaseException) -> Tuple[Optional[bytes], str, bool]:
    """(pickle-or-None, repr, is-codec-error) for the result pipe.

    The pickle is verified round-trippable *in the worker* — some
    exceptions (e.g. ``OversizedBlockError`` with its multi-arg
    ``__init__``) pickle fine but explode on load, and the load failure
    must not happen in the parent's collector thread.
    """
    is_codec = isinstance(exc, CodecError)
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
    except Exception:
        blob = None
    return blob, repr(exc), is_codec


def _load_exc(blob: Optional[bytes], text: str, is_codec: bool) -> BaseException:
    """Rebuild a worker exception, degrading to a typed wrapper."""
    if blob is not None:
        try:
            exc = pickle.loads(blob)
            if isinstance(exc, BaseException):
                return exc
        except Exception:  # pragma: no cover - dump side pre-verifies
            pass
    if is_codec:
        return CodecError(f"codec worker failure: {text}")
    return RuntimeError(f"codec worker failure: {text}")


# --------------------------------------------------------------------------
# Contract helpers shared with the thread pool
# --------------------------------------------------------------------------


def _payload_bytes(payload) -> BlockData:
    """The byte buffer behind a submitted payload, pooled or plain."""
    return payload.view if isinstance(payload, PooledBuffer) else payload


def _release_payload(payload) -> None:
    """Give a pooled payload back; plain buffers belong to the caller."""
    if isinstance(payload, PooledBuffer):
        payload.release()


def _run_callback(pool, on_done: Callable, *args) -> None:
    """Deliver one job outcome to its owner's ``on_done``.

    A callback that raises is its owner's bug: it is counted in the
    pool's ``callback_failures`` and logged, and the pool thread that
    delivered it keeps serving every other owner.
    """
    try:
        on_done(*args)
    except BaseException as exc:  # noqa: BLE001 - pool thread must survive
        with pool._lock:
            pool.callback_failures += 1
            pool.last_internal_error = exc
        logger.exception("%s: on_done callback failed", pool.name)


def _is_identity(codec) -> bool:
    """Does a compress job with ``codec`` run on the caller?  (Exact type.)"""
    return type(codec) is NullCodec


def _run_on_caller(
    pool,
    kind: str,
    work: Callable[[], tuple],
    codec_name: Callable[[], str],
    *,
    on_done: Callable,
    span: Optional[str],
    payload=None,
) -> None:
    """Run one identity job on the submitting thread (module docstring).

    ``pool._admit()`` refuses it as it would a queued job, before any
    work runs; a pooled ``payload`` is released either way.  ``kind`` is
    ``"c"`` or ``"d"``; ``work()`` returns the outcome ``on_done``
    receives after ``exc``, and ``codec_name()`` tags the span.
    """
    try:
        with pool._lock:
            pool._admit()
            pool.caller_runs += 1
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
    with pool._lock:
        pool.jobs_completed += 1
        if exc is not None:
            pool.job_failures += 1
    _run_callback(pool, on_done, exc, *outcome)


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------
#
# Job tuples on the shared SimpleQueue (None = shutdown sentinel):
#   ("c", token, slab_index, nbytes, inline, codec_id, codec_blob, fallback)
#   ("d", token, slab_index, nbytes, inline, header_tuple, check_crc)
# slab_index is -1 for inline jobs (payload travels in ``inline``).
#
# Result tuples on the per-worker pipe:
#   ("ok", token, header_tuple_or_None, out_len, in_slab, inline_or_None)
#   ("err", token, exc_blob, exc_repr, is_codec_error)
# header_tuple is (codec_id, flags, ulen, clen, crc32) — compress only.


def _resolve_codec(codec_id: int, codec_blob: Optional[bytes], cache: Dict):
    if codec_blob is None:
        return DEFAULT_REGISTRY.get(codec_id)
    codec = cache.get(codec_blob)
    if codec is None:
        codec = pickle.loads(codec_blob)
        cache[codec_blob] = codec
    return codec


def _worker_main(index: int, shm_name: Optional[str], slab_size: int, jobs, conn) -> None:
    """Worker-process entry point (module-level so every start method
    can import it).  Attaches the slab segment by name, then serves
    jobs until the ``None`` sentinel."""
    shm = None
    base = None
    if shm_name is not None:
        from multiprocessing import shared_memory

        # Attach-side registration with the (shared) resource tracker is
        # harmless here: the tracker cache is a set, so the parent's
        # unlink unregisters the name exactly once.
        shm = shared_memory.SharedMemory(name=shm_name)
        base = shm.buf
    codec_cache: Dict = {}
    try:
        while True:
            job = jobs.get()
            if job is None:
                break
            token = job[1]
            region = None
            data = None
            try:
                kind, _, slab_index, nbytes, inline = job[:5]
                if slab_index >= 0:
                    region = memoryview(base)[
                        slab_index * slab_size : (slab_index + 1) * slab_size
                    ]
                    data = region[:nbytes]
                else:
                    data = inline
                if kind == "c":
                    codec_id, codec_blob = job[5:]
                    codec = _resolve_codec(codec_id, codec_blob, codec_cache)
                    header, payload = _compress_payload(data, codec)
                    ht = tuple(header)
                    clen = header.compressed_len
                    if region is not None and clen <= slab_size:
                        # Stored fallback aliases the input, which is the
                        # slab itself — the result is already in place.
                        if payload is not data:
                            region[:clen] = payload
                        conn.send(("ok", token, ht, clen, True, None))
                    else:
                        conn.send(("ok", token, ht, clen, False, bytes(payload)))
                else:
                    header_tuple, check_crc = job[5:]
                    header = BlockHeader(*header_tuple)
                    out = decode_payload(
                        header, data, DEFAULT_REGISTRY, check_crc=check_crc
                    )
                    if region is not None and len(out) <= slab_size:
                        region[: len(out)] = out
                        conn.send(("ok", token, None, len(out), True, None))
                    else:
                        conn.send(("ok", token, None, len(out), False, out))
            except BaseException as exc:  # noqa: BLE001 - must reach parent
                blob, text, is_codec = _dump_exc(exc)
                conn.send(("err", token, blob, text, is_codec))
            finally:
                if isinstance(data, memoryview):
                    data.release()
                if region is not None:
                    region.release()
    finally:
        conn.close()
        # Deliberately no shm.close(): daemonised workers exit right
        # after this and closing with live exported views would raise.


# --------------------------------------------------------------------------
# Parent-side pool
# --------------------------------------------------------------------------


#: One accepted job: kind ("c"/"d"), its slab (None when inline) and
#: the owner's completion callback.
_Job = namedtuple("_Job", "kind slab on_done")


class CodecProcessPool:
    """N codec worker processes fed over shared-memory slabs.

    The process-backed sibling of
    :class:`~repro.core.pipeline.CodecThreadPool`, taking the same typed
    calls under the same contract (see the module docstring).

    Completion is delivered by calling the job's ``on_done`` on the
    pool's collector thread — or, for an identity job, on the thread
    that submitted it, before the submit returns.  A result handed to
    ``on_done`` is usually a view of a shared slab that is recycled
    right after the call; callbacks must copy out what they keep, and
    must not block on work that needs further pool results.
    """

    backend = "process"

    def __init__(
        self,
        workers: int,
        *,
        name: str = "repro-codec-proc",
        slab_size: int = DEFAULT_SLAB_SIZE,
        num_slabs: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not process_backend_available():
            raise ProcessBackendUnavailable(process_backend_reason())
        self.workers = workers
        self.name = name
        ctx = _context()
        # Enough slabs that every worker can hold one job while another
        # is queued per worker — submit bursts beyond that go inline.
        self._slabs = SharedSlabPool(
            slab_size=slab_size, num_slabs=num_slabs or max(4, 2 * workers)
        )
        self._jobs = ctx.SimpleQueue()
        self._lock = threading.Lock()
        self._pending: Dict[int, _Job] = {}
        self._next_token = 0
        self._closing = False
        self._closed = False
        self._broken = False
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.job_failures = 0
        self.inline_jobs = 0
        self.caller_runs = 0
        self.callback_failures = 0
        self.last_internal_error: Optional[BaseException] = None
        self._procs = []
        self._conns = []
        for index in range(workers):
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(index, self._slabs.name, slab_size, self._jobs, send_conn),
                name=f"{name}-{index}",
                daemon=True,
            )
            proc.start()
            # The parent keeps only the receive end; the send end must
            # be closed here so worker death surfaces as EOF.
            send_conn.close()
            self._procs.append(proc)
            self._conns.append(recv_conn)
        self._collector = threading.Thread(
            target=self._collect, name=f"{name}-collector", daemon=True
        )
        self._collector.start()

    # -- submission --------------------------------------------------------

    def _admit(self) -> None:
        """Refuse a job on a broken or closed pool, else count it.

        The caller holds ``_lock``.
        """
        if self._broken:
            raise WorkerCrashedError(f"{self.name}: pool is broken (a worker crashed)")
        if self._closing or self._closed:
            raise RuntimeError(f"{self.name}: pool is closed")
        self.jobs_submitted += 1

    def _add_job(self, job: _Job) -> int:
        with self._lock:
            try:
                self._admit()
            except BaseException:
                if job.slab is not None:
                    job.slab.release()
                raise
            token = self._next_token
            self._next_token += 1
            self._pending[token] = job
            if job.slab is None:
                self.inline_jobs += 1
            return token

    def _stage_payload(self, data: BlockData):
        """(slab, slab_index, nbytes, inline) for one job payload."""
        nbytes = _nbytes(data)
        slab = self._slabs.try_acquire(nbytes)
        if slab is not None:
            slab.view[:nbytes] = data
            return slab, slab.index, nbytes, None
        return None, -1, nbytes, bytes(data)

    def submit_compress(
        self,
        data: BlockData,
        codec,
        *,
        on_done: Callable[
            [Optional[BaseException], Optional[BlockHeader], Optional[BlockData]], None
        ],
        span: Optional[str] = None,
    ) -> None:
        """Compress ``data`` with ``codec`` on a worker process.

        ``on_done(exc, header, payload)`` runs on the collector thread:
        either ``exc`` is set, or ``header`` is the frame header and
        ``payload`` the (possibly stored-fallback) payload bytes, valid
        only during the call.  An identity job runs on the caller
        instead, and only it opens ``span`` (see the module docstring).
        """
        if _is_identity(codec):
            _run_on_caller(
                self,
                "c",
                lambda: _compress_payload(data, codec),
                lambda: codec.name,
                on_done=on_done,
                span=span,
            )
            return
        codec_id = codec.codec_id
        codec_blob = None
        known = DEFAULT_REGISTRY.get(codec_id) if codec_id in DEFAULT_REGISTRY else None
        if known is None or known.name != codec.name:
            codec_blob = pickle.dumps(codec)
        slab, slab_index, nbytes, inline = self._stage_payload(data)
        token = self._add_job(_Job("c", slab, on_done))
        self._jobs.put(("c", token, slab_index, nbytes, inline, codec_id, codec_blob))

    def submit_decompress(
        self,
        header: BlockHeader,
        payload,
        *,
        check_crc: bool = False,
        registry: CodecRegistry = DEFAULT_REGISTRY,
        on_done: Callable[[Optional[BaseException], Optional[BlockData]], None],
        span: Optional[str] = None,
    ) -> None:
        """Decompress one frame payload on a worker process.

        ``on_done(exc, data)`` runs on the collector thread; ``data``
        is the decompressed bytes, valid only during the call.
        ``check_crc`` defaults to False because the block fetchers
        verify the CRC before handing the payload over.  A pooled
        ``payload`` is staged into shared memory and released before
        this returns.  Workers resolve codecs from their own
        ``DEFAULT_REGISTRY``, so any other ``registry`` is refused with
        ``ValueError`` rather than silently decoded with the wrong one
        — even for a codec-id-0 frame, which otherwise runs on the
        caller and is the only job that opens ``span`` (see the module
        docstring).
        """
        if registry is not DEFAULT_REGISTRY:
            _release_payload(payload)
            raise ValueError(
                f"{self.name}: a custom codec registry cannot cross "
                "the process boundary"
            )
        if header.codec_id == 0:
            view = _payload_bytes(payload)
            _run_on_caller(
                self,
                "d",
                lambda: (decode_payload(header, view, check_crc=check_crc),),
                lambda: DEFAULT_REGISTRY.get(0).name,
                on_done=on_done,
                span=span,
                payload=payload,
            )
            return
        try:
            slab, slab_index, nbytes, inline = self._stage_payload(
                _payload_bytes(payload)
            )
        finally:
            _release_payload(payload)
        ht = tuple(header)
        token = self._add_job(_Job("d", slab, on_done))
        self._jobs.put(("d", token, slab_index, nbytes, inline, ht, check_crc))

    # -- completion --------------------------------------------------------

    def _fail(self, job: _Job, exc: BaseException) -> None:
        """Deliver ``exc`` as the job's outcome (its slab stays with the caller)."""
        if job.kind == "c":
            _run_callback(self, job.on_done, exc, None, None)
        else:
            _run_callback(self, job.on_done, exc, None)

    def _deliver(self, msg) -> None:
        token = msg[1]
        with self._lock:
            job = self._pending.pop(token, None)
        if job is None:  # pragma: no cover - already failed by teardown
            return
        out = None
        try:
            if msg[0] == "ok":
                _, _, ht, out_len, in_slab, inline = msg
                if in_slab:
                    out = job.slab.view[:out_len]
                else:
                    out = inline
                with self._lock:
                    self.jobs_completed += 1
                if job.kind == "c":
                    _run_callback(self, job.on_done, None, BlockHeader(*ht), out)
                else:
                    _run_callback(self, job.on_done, None, out)
            else:
                _, _, blob, text, is_codec = msg
                exc = _load_exc(blob, text, is_codec)
                with self._lock:
                    self.jobs_completed += 1
                    self.job_failures += 1
                self._fail(job, exc)
        finally:
            if isinstance(out, memoryview):
                out.release()
            if job.slab is not None:
                job.slab.release()

    def _collect(self) -> None:
        conns = list(self._conns)
        while conns:
            try:
                ready = _mp_connection.wait(conns)
            except OSError:  # pragma: no cover - teardown race
                break
            for conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # Worker gone.  Expected during close() (sentinel
                    # honoured, pipe closed); anything else is a crash.
                    conns.remove(conn)
                    with self._lock:
                        closing = self._closing
                    if not closing:
                        self._break()
                    continue
                self._deliver(msg)

    def _break(self) -> None:
        """A worker died mid-service: fail everything, refuse new work."""
        with self._lock:
            if self._broken:
                return
            self._broken = True
            in_flight = len(self._pending)
        logger.error(
            "%s: codec worker process died unexpectedly; failing %d "
            "in-flight job(s)",
            self.name,
            in_flight,
        )
        self._fail_pending(
            lambda: WorkerCrashedError(
                f"{self.name}: worker process died with the job in flight"
            )
        )

    # -- introspection -----------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Jobs submitted but not yet completed (queued + running)."""
        with self._lock:
            return len(self._pending)

    def qsize(self) -> int:
        """Approximate queue depth (the in-flight count: a SimpleQueue
        cannot be sized, and admission control only needs a load
        signal)."""
        return self.in_flight

    @property
    def broken(self) -> bool:
        with self._lock:
            return self._broken

    def stats(self) -> dict:
        """Counter snapshot — a superset of the thread pool's keys."""
        with self._lock:
            return {
                "workers": self.workers,
                "jobs_submitted": self.jobs_submitted,
                "jobs_completed": self.jobs_completed,
                "job_failures": self.job_failures,
                "queued": len(self._pending),
                "inline_jobs": self.inline_jobs,
                "caller_runs": self.caller_runs,
                "callback_failures": self.callback_failures,
                "backend": "process",
                "broken": self._broken,
                "slabs": self._slabs.stats(),
            }

    # -- shutdown ----------------------------------------------------------

    def _fail_pending(self, exc_factory: Callable[[], BaseException]) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for job in pending:
            try:
                self._fail(job, exc_factory())
            finally:
                if job.slab is not None:
                    job.slab.release()

    def close(self, timeout: float = 30.0) -> None:
        """Drain queued jobs, stop workers, unlink shared memory.

        Jobs already submitted are completed (their callbacks run)
        before the workers exit; submits racing with close raise.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            if self._closing:
                self._closed = True
                return
            self._closing = True
        for _ in self._procs:
            self._jobs.put(None)
        for proc in self._procs:
            proc.join(timeout)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - drain watchdog
                logger.warning("%s: worker %s did not drain; killing", self.name, proc.name)
                proc.terminate()
                proc.join(5.0)
        self._collector.join(timeout)
        self._release("pool closed with job in flight")

    def terminate(self) -> None:
        """Kill-now teardown for abort paths: no drain, jobs are failed.

        Idempotent, and safe to call after :meth:`close`.
        """
        with self._lock:
            if self._closed:
                return
            self._closing = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(5.0)
        self._collector.join(5.0)
        self._release("pool terminated with job in flight")

    def _release(self, why: str) -> None:
        """Shutdown tail: close the pipes, fail what is left, unlink."""
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._jobs.close()
        self._fail_pending(lambda: WorkerCrashedError(f"{self.name}: {why}"))
        self._slabs.close()
        with self._lock:
            self._closed = True

    def __enter__(self) -> "CodecProcessPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()
