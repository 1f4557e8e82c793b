"""The codec-execution contract of :class:`~repro.core.pipeline.CodecThreadPool`.

The pipelines and the serve daemon's flows hand codec jobs to the pool
through its typed calls (``submit_compress``/``submit_decompress`` with
an ``on_done`` callback); these cases pin the rules they rely on (see
the :mod:`repro.core.pipeline` docstring).
"""

from __future__ import annotations

import io
import os
import threading

import pytest

from repro.codecs.block import (
    BlockWriter,
    _compress_payload,
    decode_payload,
    encode_block,
    frame_payload,
)
from repro.codecs.errors import CodecError, CorruptBlockError, UnknownCodecError
from repro.codecs.null_codec import NullCodec
from repro.codecs.registry import CodecRegistry
from repro.core.buffers import BufferPool
from repro.core.levels import default_level_table
from repro.core.pipeline import CodecThreadPool, make_block_decoder
from repro.data import Compressibility, SyntheticCorpus
from repro.telemetry.events import BUS, SpanClosed

LEVELS = default_level_table()

#: The pool the cases run on; its name is part of every test id.
POOLS = ["thread"]


@pytest.fixture(scope="module")
def shared_pool():
    """One pool shared by the module, as the daemon shares its pool."""
    with CodecThreadPool(2, name="contract-thread") as pool:
        yield pool


@pytest.fixture(params=POOLS)
def pool(shared_pool):
    return shared_pool


@pytest.fixture(params=POOLS)
def own_pool():
    """A one-worker pool of the case's own, closed at teardown."""
    with CodecThreadPool(1, name="contract-own") as pool:
        yield pool


@pytest.fixture(scope="module")
def corpus():
    return SyntheticCorpus(file_size=64 * 1024, seed=41)


class _Outcome:
    """Collects one job's ``on_done`` arguments, copied to bytes."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.calls = 0
        self.args: tuple = ()

    def compress(self, exc, header, payload) -> None:
        self.calls += 1
        frame = None if exc else bytes(frame_payload(header, payload).frame)
        self.args = (exc, header, frame)
        self.done.set()

    def decompress(self, exc, data) -> None:
        self.calls += 1
        self.args = (exc, None if data is None else bytes(data))
        self.done.set()

    def wait(self) -> tuple:
        assert self.done.wait(30.0), "on_done never ran"
        return self.args


def _compressed(corpus, level: int, copies: int = 1):
    """(plaintext, header, payload bytes) of one HIGH-class block."""
    data = corpus.payload(Compressibility.HIGH) * copies
    header, payload = _compress_payload(data, LEVELS.codec(level))
    return data, header, bytes(payload)


class TestResults:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_compress_frames_like_encode_block(self, pool, corpus, level):
        data = corpus.payload(Compressibility.MODERATE)
        expected = encode_block(data, LEVELS.codec(level))
        out = _Outcome()
        pool.submit_compress(data, LEVELS.codec(level), on_done=out.compress)
        exc, header, frame = out.wait()
        assert exc is None
        assert header == expected.header
        assert frame == bytes(expected.frame)

    def test_stored_fallback_frames_like_encode_block(self, pool):
        data = os.urandom(16384)
        expected = encode_block(data, LEVELS.codec(1))
        assert expected.header.stored_fallback  # the case is live
        out = _Outcome()
        pool.submit_compress(data, LEVELS.codec(1), on_done=out.compress)
        exc, header, frame = out.wait()
        assert exc is None
        assert (header, frame) == (expected.header, bytes(expected.frame))

    @pytest.mark.parametrize("level", [0, 2, 3])
    def test_decompress_matches_decode_payload(self, pool, corpus, level):
        data, header, payload = _compressed(corpus, level)
        assert decode_payload(header, payload) == data
        out = _Outcome()
        pool.submit_decompress(header, payload, check_crc=True, on_done=out.decompress)
        assert out.wait() == (None, data)

    def test_pooled_payload_is_released(self, pool, corpus):
        data, header, payload = _compressed(corpus, 2)
        buffers = BufferPool()
        pooled = buffers.acquire(len(payload))
        pooled.view[:] = payload
        out = _Outcome()
        pool.submit_decompress(header, pooled, on_done=out.decompress)
        assert out.wait() == (None, data)
        assert pooled.view is None
        assert buffers.free_slabs == 1


class TestErrors:
    def test_crc_error_arrives_through_on_done(self, pool, corpus):
        _, header, payload = _compressed(corpus, 2)
        damaged = bytearray(payload)
        damaged[len(damaged) // 2] ^= 0xFF
        out = _Outcome()
        pool.submit_decompress(
            header, bytes(damaged), check_crc=True, on_done=out.decompress
        )
        exc, data = out.wait()
        assert isinstance(exc, CorruptBlockError)
        assert data is None
        assert pool.stats()["job_failures"] >= 1

    def test_codec_error_arrives_through_on_done(self, pool, corpus):
        _, header, payload = _compressed(corpus, 3)
        out = _Outcome()
        pool.submit_decompress(header, payload[:-8], on_done=out.decompress)
        exc, _ = out.wait()
        assert isinstance(exc, CodecError)

    def test_submit_after_close_raises_and_releases(self, own_pool, corpus):
        _, header, payload = _compressed(corpus, 2)
        pool = own_pool
        pool.close()
        buffers = BufferPool()
        pooled = buffers.acquire(len(payload))
        out = _Outcome()
        with pytest.raises((ValueError, RuntimeError)):
            pool.submit_decompress(header, pooled, on_done=out.decompress)
        assert pooled.view is None
        assert buffers.free_slabs == 1
        with pytest.raises((ValueError, RuntimeError)):
            pool.submit_compress(b"x", LEVELS.codec(1), on_done=out.compress)
        assert out.calls == 0

    def test_terminate_releases_every_dropped_payload(self, own_pool, corpus):
        data, header, payload = _compressed(corpus, 3, copies=4)
        pool = own_pool
        buffers = BufferPool()
        jobs = []
        for _ in range(12):
            pooled = buffers.acquire(len(payload))
            pooled.view[:] = payload
            out = _Outcome()
            pool.submit_decompress(header, pooled, on_done=out.decompress)
            jobs.append((pooled, out))
        pool.terminate()
        outcomes = [out.wait() for _, out in jobs]
        assert all(out.calls == 1 for _, out in jobs)
        assert all(pooled.view is None for pooled, _ in jobs)
        assert any(exc is not None for exc, _ in outcomes)  # some were dropped
        assert all(got == data for exc, got in outcomes if exc is None)


def test_decoder_keeps_its_registry_on_a_shared_pool(pool):
    """A registry that cannot resolve the stream's codec fails the read
    on a shared pool too: the decoder's registry goes with each job."""
    sink = io.BytesIO()
    writer = BlockWriter(sink)
    for i in range(3):
        writer.write_block(bytes([i]) * 4096, LEVELS.codec(1))
    registry = CodecRegistry()
    registry.register(NullCodec())
    decoder = make_block_decoder(
        io.BytesIO(sink.getvalue()), registry, workers=2, codec_pool=pool
    )
    try:
        with pytest.raises(UnknownCodecError):
            decoder.read_block()
        assert decoder.blocks_read == 0
    finally:
        decoder.close()


class _SubclassedNull(NullCodec):
    """An id-0 codec that is not exactly ``NullCodec``: no caller run."""


class _Recorder(_Outcome):
    """An ``_Outcome`` that also records the thread ``on_done`` ran on."""

    def compress(self, exc, header, payload) -> None:
        self.thread = threading.get_ident()
        super().compress(exc, header, payload)

    def decompress(self, exc, data) -> None:
        self.thread = threading.get_ident()
        super().decompress(exc, data)


def _identity_frame(corpus):
    """(plaintext, header, payload bytes) of one codec-id-0 block."""
    data = corpus.payload(Compressibility.LOW)
    header, payload = _compress_payload(data, NullCodec())
    return data, header, bytes(payload)


class TestIdentityJobsRunOnCaller:
    def test_compress_completes_on_the_caller_before_returning(self, pool, corpus):
        data = corpus.payload(Compressibility.LOW)
        before = pool.stats()
        out = _Recorder()
        pool.submit_compress(data, NullCodec(), on_done=out.compress)
        assert out.done.is_set() and out.calls == 1
        assert out.thread == threading.get_ident()
        exc, header, frame = out.args
        assert exc is None
        assert frame == bytes(encode_block(data, NullCodec()).frame)
        after = pool.stats()
        for key in ("jobs_submitted", "jobs_completed", "caller_runs"):
            assert after[key] == before[key] + 1

    def test_decompress_completes_on_the_caller_before_returning(self, pool, corpus):
        data, header, payload = _identity_frame(corpus)
        buffers = BufferPool()
        pooled = buffers.acquire(len(payload))
        pooled.view[:] = payload
        before = pool.stats()
        out = _Recorder()
        pool.submit_decompress(header, pooled, check_crc=True, on_done=out.decompress)
        assert out.done.is_set() and out.calls == 1
        assert out.thread == threading.get_ident()
        assert out.args == (None, data)
        assert pooled.view is None and buffers.free_slabs == 1
        after = pool.stats()
        assert after["caller_runs"] == before["caller_runs"] + 1
        assert after["jobs_completed"] == before["jobs_completed"] + 1

    def test_other_id0_codec_still_runs_on_a_worker(self, pool, corpus):
        data = corpus.payload(Compressibility.LOW)
        codec = _SubclassedNull()
        assert codec.codec_id == 0
        before = pool.stats()["caller_runs"]
        out = _Recorder()
        pool.submit_compress(data, codec, on_done=out.compress)
        exc, header, frame = out.wait()
        assert exc is None
        assert frame == bytes(encode_block(data, NullCodec()).frame)
        assert out.thread != threading.get_ident()
        assert pool.stats()["caller_runs"] == before

    def test_identity_submit_after_close_raises_and_releases(self, own_pool, corpus):
        data, header, payload = _identity_frame(corpus)
        pool = own_pool
        pool.close()
        buffers = BufferPool()
        pooled = buffers.acquire(len(payload))
        pooled.view[:] = payload
        out = _Outcome()
        with pytest.raises((ValueError, RuntimeError)):
            pool.submit_decompress(header, pooled, on_done=out.decompress)
        assert pooled.view is None
        assert buffers.free_slabs == 1
        with pytest.raises((ValueError, RuntimeError)):
            pool.submit_compress(data, NullCodec(), on_done=out.compress)
        assert out.calls == 0
        assert pool.stats()["caller_runs"] == 0

    def test_crc_failure_arrives_through_on_done(self, pool, corpus):
        _, header, payload = _identity_frame(corpus)
        damaged = bytearray(payload)
        damaged[len(damaged) // 2] ^= 0xFF
        failures = pool.stats()["job_failures"]
        out = _Outcome()
        pool.submit_decompress(
            header, bytes(damaged), check_crc=True, on_done=out.decompress
        )
        assert out.done.is_set()
        exc, data = out.args
        assert isinstance(exc, CorruptBlockError)
        assert data is None
        assert pool.stats()["job_failures"] == failures + 1

    def test_raising_on_done_is_counted_not_raised(self, pool, corpus):
        data, header, payload = _identity_frame(corpus)

        def owner_bug(*args) -> None:
            raise RuntimeError("owner bug in on_done")

        before = pool.stats()["callback_failures"]
        pool.submit_decompress(header, payload, on_done=owner_bug)
        pool.submit_compress(data, NullCodec(), on_done=owner_bug)
        assert pool.stats()["callback_failures"] == before + 2

    def test_opens_the_caller_named_span(self, pool, corpus):
        data, header, payload = _identity_frame(corpus)
        spans = []
        handle = BUS.subscribe(spans.append, SpanClosed)
        try:
            pool.submit_compress(
                data, NullCodec(), on_done=_Outcome().compress, span="t.encode"
            )
            pool.submit_decompress(
                header, payload, on_done=_Outcome().decompress, span="t.decode"
            )
        finally:
            BUS.unsubscribe(handle)
        assert [(s.name, dict(s.tags)) for s in spans] == [
            ("t.encode", {"worker": "caller", "codec": "null"}),
            ("t.decode", {"worker": "caller", "codec": "null"}),
        ]

    def test_custom_registry_for_an_id0_frame(self, pool, corpus):
        """An id-0 frame decodes with the registry it was submitted with."""
        data, header, payload = _identity_frame(corpus)
        registry = CodecRegistry()
        registry.register(NullCodec())
        buffers = BufferPool()
        pooled = buffers.acquire(len(payload))
        pooled.view[:] = payload
        out = _Outcome()
        pool.submit_decompress(header, pooled, registry=registry, on_done=out.decompress)
        assert out.args == (None, data)
        assert pooled.view is None and buffers.free_slabs == 1
