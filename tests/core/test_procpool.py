"""Tests for the multiprocess shared-memory codec backend.

Covers the :class:`~repro.core.buffers.SharedSlabPool` ring, the
:class:`~repro.core.procpool.CodecProcessPool` job semantics (parity
with the serial codec steps, stored fallback, oversize inline path,
error transport), worker-crash containment, shutdown hygiene (no
leaked processes, no stray ``/dev/shm`` segments) and the
thread-fallback resolution used everywhere a ``backend=`` knob exists.
"""

from __future__ import annotations

import glob
import io
import logging
import os
import signal
import threading

import pytest

from repro.codecs.block import (
    FLAG_STORED_FALLBACK,
    BlockHeader,
    _compress_payload,
)
from repro.codecs.errors import CodecError, CorruptBlockError
from repro.core import procpool
from repro.core.buffers import SharedSlabPool
from repro.core.levels import default_level_table
from repro.core.pipeline import CodecThreadPool, make_block_encoder
from repro.core.procpool import (
    CodecProcessPool,
    ProcessBackendUnavailable,
    WorkerCrashedError,
    process_backend_available,
    resolve_backend,
)
from repro.data import Compressibility, SyntheticCorpus
from repro.telemetry.events import BUS, CodecBackendFallback

LEVELS = default_level_table()

requires_process_backend = pytest.mark.skipif(
    not process_backend_available(),
    reason="process backend unavailable on this platform",
)


def _segment_gone(name: str) -> bool:
    """True iff the named shared-memory segment no longer exists.

    Checked by name rather than by diffing the whole ``/dev/shm``
    listing so concurrent pools (other tests, benchmarks) cannot make
    the check flaky.  On platforms without a ``/dev/shm`` filesystem
    the check degrades to vacuously true.
    """
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return True
    return not glob.glob(os.path.join("/dev/shm", "*" + name.lstrip("/")))


def _compress_on(pool: CodecProcessPool, data: bytes, codec, **kwargs) -> dict:
    """Run one compress job to completion; {'exc','header','payload'}."""
    done = threading.Event()
    out: dict = {}

    def on_done(exc, header, payload):
        out["exc"] = exc
        out["header"] = header
        out["payload"] = None if payload is None else bytes(payload)
        done.set()

    pool.submit_compress(data, codec, on_done=on_done, **kwargs)
    assert done.wait(30.0), "compress job never completed"
    return out


def _decompress_on(pool: CodecProcessPool, header, payload, **kwargs) -> dict:
    """Run one decompress job to completion; {'exc','data'}."""
    done = threading.Event()
    out: dict = {}

    def on_done(exc, data):
        out["exc"] = exc
        out["data"] = None if data is None else bytes(data)
        done.set()

    pool.submit_decompress(header, payload, on_done=on_done, **kwargs)
    assert done.wait(30.0), "decompress job never completed"
    return out


class TestSharedSlabPool:
    def test_acquire_write_read_release(self):
        with SharedSlabPool(slab_size=1024, num_slabs=2) as pool:
            slab = pool.try_acquire(512)
            assert slab is not None
            assert 0 <= slab.index < 2
            slab.view[:5] = b"hello"
            assert bytes(slab.view[:5]) == b"hello"
            slab.release()
            assert pool.free_slabs == 2
            assert pool.stats()["acquires"] == 1

    def test_release_is_idempotent(self):
        with SharedSlabPool(slab_size=64, num_slabs=1) as pool:
            slab = pool.try_acquire(8)
            slab.release()
            slab.release()
            assert pool.free_slabs == 1

    def test_oversize_request_returns_none(self):
        with SharedSlabPool(slab_size=64, num_slabs=2) as pool:
            assert pool.try_acquire(65) is None
            assert pool.stats()["oversize"] == 1
            assert pool.free_slabs == 2

    def test_exhausted_ring_returns_none(self):
        with SharedSlabPool(slab_size=64, num_slabs=2) as pool:
            slabs = [pool.try_acquire(8), pool.try_acquire(8)]
            assert all(s is not None for s in slabs)
            assert pool.try_acquire(8) is None
            assert pool.stats()["exhausted"] == 1
            for slab in slabs:
                slab.release()
            assert pool.try_acquire(8) is not None

    def test_close_unlinks_segment(self):
        pool = SharedSlabPool(slab_size=64, num_slabs=1)
        name = pool.name
        if os.path.isdir("/dev/shm"):
            assert not _segment_gone(name), "segment never appeared"
        pool.close()
        pool.close()  # idempotent
        assert _segment_gone(name)

    def test_close_with_outstanding_slab(self):
        pool = SharedSlabPool(slab_size=64, num_slabs=2)
        name = pool.name
        slab = pool.try_acquire(16)
        assert slab is not None
        pool.close()
        # The abort path may still release its slab handles afterwards.
        slab.release()
        assert _segment_gone(name)

    def test_closed_pool_refuses_acquire(self):
        pool = SharedSlabPool(slab_size=64, num_slabs=1)
        pool.close()
        assert pool.try_acquire(8) is None


@requires_process_backend
class TestCodecProcessPool:
    @pytest.fixture(scope="class")
    def pool(self):
        with CodecProcessPool(2, name="test-codec-proc") as pool:
            yield pool

    @pytest.fixture(scope="class")
    def corpus(self):
        return SyntheticCorpus(file_size=64 * 1024, seed=37)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_compress_matches_serial(self, pool, corpus, level):
        data = corpus.payload(Compressibility.MODERATE)
        codec = LEVELS.codec(level)
        expected_header, expected_payload = _compress_payload(data, codec)
        out = _compress_on(pool, data, codec)
        assert out["exc"] is None
        assert out["header"] == expected_header
        assert out["payload"] == bytes(expected_payload)

    def test_stored_fallback_matches_serial(self, pool):
        data = os.urandom(16384)  # never compresses below itself
        codec = LEVELS.codec(1)
        expected_header, expected_payload = _compress_payload(data, codec)
        assert expected_header.flags & FLAG_STORED_FALLBACK  # test is live
        out = _compress_on(pool, data, codec)
        assert out["exc"] is None
        assert out["header"] == expected_header
        assert out["payload"] == bytes(expected_payload)

    @pytest.mark.parametrize("level", [0, 2, 3])
    def test_decompress_roundtrip(self, pool, corpus, level):
        data = corpus.payload(Compressibility.HIGH)
        header, payload = _compress_payload(data, LEVELS.codec(level))
        out = _decompress_on(pool, header, bytes(payload), check_crc=True)
        assert out["exc"] is None
        assert out["data"] == data

    def test_oversize_payload_goes_inline(self):
        data = os.urandom(8192)
        codec = LEVELS.codec(2)
        expected_header, expected_payload = _compress_payload(data, codec)
        with CodecProcessPool(1, slab_size=1024, num_slabs=2) as small:
            out = _compress_on(small, data, codec)
            assert out["exc"] is None
            assert out["header"] == expected_header
            assert out["payload"] == bytes(expected_payload)
            stats = small.stats()
        assert stats["inline_jobs"] >= 1

    def test_crc_mismatch_surfaces_as_codec_error(self, pool, corpus):
        data = corpus.payload(Compressibility.HIGH)
        header, payload = _compress_payload(data, LEVELS.codec(2))
        corrupted = bytearray(payload)
        corrupted[len(corrupted) // 2] ^= 0xFF
        out = _decompress_on(pool, header, bytes(corrupted), check_crc=True)
        assert isinstance(out["exc"], CorruptBlockError)
        # The pool stays serviceable after a job failure.
        ok = _decompress_on(pool, header, bytes(payload), check_crc=True)
        assert ok["exc"] is None and ok["data"] == data
        assert pool.stats()["job_failures"] >= 1

    def test_bad_payload_surfaces_codec_error(self, pool):
        header = BlockHeader(
            codec_id=2, flags=0, uncompressed_len=100, compressed_len=9, crc32=0
        )
        out = _decompress_on(pool, header, b"not-bzip2!", check_crc=False)
        assert isinstance(out["exc"], CodecError)

    def test_stats_shape(self, pool):
        stats = pool.stats()
        assert stats["backend"] == "process"
        assert stats["workers"] == 2
        assert stats["jobs_completed"] <= stats["jobs_submitted"]
        assert "slabs" in stats and "exhausted" in stats["slabs"]

    def test_close_leaves_no_processes_or_segments(self, corpus):
        pool = CodecProcessPool(2)
        name = pool._slabs.name
        data = corpus.payload(Compressibility.MODERATE)
        out = _compress_on(pool, data, LEVELS.codec(2))
        assert out["exc"] is None
        procs = list(pool._procs)
        pool.close()
        pool.close()  # idempotent
        assert all(not p.is_alive() for p in procs)
        assert _segment_gone(name)
        with pytest.raises(RuntimeError):
            pool.submit_compress(b"x", LEVELS.codec(1), on_done=lambda *a: None)

    def test_terminate_leaves_no_segments(self):
        pool = CodecProcessPool(1)
        name = pool._slabs.name
        pool.terminate()
        assert _segment_gone(name)
        assert all(not p.is_alive() for p in pool._procs)


@requires_process_backend
class TestWorkerCrash:
    def test_crash_fails_in_flight_and_breaks_pool(self):
        data = os.urandom(256 * 1024)
        heavy = LEVELS.codec(3)
        results: list = []
        done = threading.Event()
        total = 6

        def on_done(exc, header, payload):
            results.append(exc)
            if len(results) == total:
                done.set()

        pool = CodecProcessPool(1, name="crash-victim")
        name = pool._slabs.name
        try:
            for _ in range(total):
                pool.submit_compress(data, heavy, on_done=on_done)
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            assert done.wait(30.0), "in-flight jobs never completed after crash"
            # At 6 queued HEAVY jobs against one freshly killed worker, at
            # least the tail of the queue must have died in flight.
            crashed = [e for e in results if isinstance(e, WorkerCrashedError)]
            assert crashed, f"no WorkerCrashedError in {results!r}"
            assert pool.broken
            with pytest.raises(WorkerCrashedError):
                pool.submit_compress(data, heavy, on_done=lambda *a: None)
        finally:
            pool.terminate()
        assert _segment_gone(name)


class TestBackendResolution:
    def _force_unavailable(self, reason: str = "forced-by-test"):
        procpool._availability = (False, reason)
        procpool._fallback_warned.clear()

    @pytest.fixture(autouse=True)
    def _restore_probe(self):
        saved = procpool._availability
        yield
        procpool._availability = saved
        procpool._fallback_warned.clear()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("fibers")

    def test_thread_passthrough(self):
        assert resolve_backend("thread") == "thread"

    def test_unavailable_process_resolves_to_thread_with_event(self):
        self._force_unavailable()
        events: list = []
        handle = BUS.subscribe(events.append, CodecBackendFallback)
        try:
            assert resolve_backend("process", source="unit-test") == "thread"
        finally:
            BUS.unsubscribe(handle)
        assert len(events) == 1
        assert events[0].source == "unit-test"
        assert events[0].requested == "process"
        assert events[0].resolved == "thread"
        assert events[0].reason == "forced-by-test"

    def test_fallback_warns_once_per_reason(self, caplog):
        self._force_unavailable()
        with caplog.at_level(logging.WARNING, logger="repro.core.procpool"):
            resolve_backend("process", source="a")
            resolve_backend("process", source="b")
        warnings = [r for r in caplog.records if "falling back" in r.message]
        assert len(warnings) == 1

    def test_pool_ctor_raises_when_unavailable(self):
        self._force_unavailable()
        with pytest.raises(ProcessBackendUnavailable):
            CodecProcessPool(1)

    def test_make_block_encoder_degrades_to_threads(self):
        self._force_unavailable()
        enc = make_block_encoder(io.BytesIO(), workers=2, backend="process")
        try:
            assert isinstance(enc.codec_pool, CodecThreadPool)
            enc.write_block(b"z" * 4096, LEVELS.codec(2))
        finally:
            enc.close()
