"""Tests for the shared CodecThreadPool and pool-sharing pipelines."""

from __future__ import annotations

import io
import threading
import time

import pytest

from repro.codecs.block import BlockReader
from repro.core.levels import default_level_table
from repro.core.pipeline import (
    CodecThreadPool,
    ParallelBlockEncoder,
    make_block_encoder,
)

from ..conftest import ThreadBaseline

LEVELS = default_level_table()


def _settle(predicate, deadline: float = 5.0) -> bool:
    end = time.monotonic() + deadline
    while not predicate():
        if time.monotonic() > end:
            return False
        time.sleep(0.01)
    return True


class TestCodecThreadPool:
    def test_runs_submitted_jobs(self):
        hits = []
        with CodecThreadPool(2) as pool:
            done = threading.Event()
            pool.submit(lambda index: (hits.append(index), done.set()))
            assert done.wait(5.0)
        assert len(hits) == 1
        assert 0 <= hits[0] < 2

    def test_worker_indices_are_distinct(self):
        seen = set()
        barrier = threading.Barrier(3)

        def job(index):
            seen.add(index)
            barrier.wait(timeout=5.0)

        with CodecThreadPool(3) as pool:
            for _ in range(3):
                pool.submit(job)
            assert _settle(lambda: len(seen) == 3)
        assert seen == {0, 1, 2}

    def test_close_is_idempotent_and_joins_workers(self):
        before = ThreadBaseline()
        pool = CodecThreadPool(4)
        assert len(before.new()) == 4
        pool.close()
        pool.close()
        assert before.new() == []
        assert pool.closed

    def test_submit_after_close_raises(self):
        pool = CodecThreadPool(1)
        pool.close()
        with pytest.raises(ValueError):
            pool.submit(lambda index: None)

    def test_job_failure_keeps_worker_alive(self):
        with CodecThreadPool(1) as pool:
            pool.submit(lambda index: 1 / 0)
            done = threading.Event()
            pool.submit(lambda index: done.set())
            assert done.wait(5.0)
            stats = pool.stats()
        assert stats["job_failures"] == 1
        assert stats["jobs_completed"] == 2

    def test_stats_counts(self):
        with CodecThreadPool(2) as pool:
            for _ in range(5):
                pool.submit(lambda index: None)
            assert _settle(lambda: pool.stats()["jobs_completed"] == 5)
            assert pool.stats()["jobs_submitted"] == 5
            assert pool.in_flight == 0

    def test_requires_at_least_one_worker(self):
        with pytest.raises(ValueError):
            CodecThreadPool(0)


class TestSharedPoolPipelines:
    """Many encoders on one pool: the serve-subsystem substrate."""

    def _payloads(self):
        return [bytes([i % 251]) * 4096 for i in range(12)]

    def _serial_frames(self, payloads):
        sink = io.BytesIO()
        enc = make_block_encoder(sink, workers=1, source="t")
        for data in payloads:
            enc.write_block(data, LEVELS.codec(2))
        enc.close()
        return sink.getvalue()

    def test_two_encoders_share_one_pool_byte_identical(self):
        payloads = self._payloads()
        expected = self._serial_frames(payloads)
        with CodecThreadPool(3) as pool:
            sinks = [io.BytesIO(), io.BytesIO()]
            encoders = [
                ParallelBlockEncoder(s, codec_pool=pool, max_in_flight=4)
                for s in sinks
            ]
            for data in payloads:
                for enc in encoders:
                    enc.write_block(data, LEVELS.codec(2))
            for enc in encoders:
                enc.close()
            assert pool.stats()["jobs_submitted"] == 2 * len(payloads)
        for sink in sinks:
            assert sink.getvalue() == expected

    def test_encoder_close_does_not_close_shared_pool(self):
        with CodecThreadPool(2) as pool:
            enc = ParallelBlockEncoder(io.BytesIO(), codec_pool=pool, max_in_flight=2)
            enc.write_block(b"x" * 1000, LEVELS.codec(1))
            enc.close()
            assert not pool.closed
            done = threading.Event()
            pool.submit(lambda index: done.set())
            assert done.wait(5.0)

    def test_owned_pool_still_closed_with_encoder(self):
        before = ThreadBaseline()
        enc = ParallelBlockEncoder(io.BytesIO(), workers=2)
        assert before.new()
        enc.close()
        assert before.new(settle=5.0) == []

    def test_make_block_encoder_with_codec_pool(self):
        payloads = self._payloads()
        expected = self._serial_frames(payloads)
        with CodecThreadPool(2) as pool:
            sink = io.BytesIO()
            enc = make_block_encoder(sink, workers=2, source="t", codec_pool=pool)
            assert enc.codec_pool is pool
            for data in payloads:
                enc.write_block(data, LEVELS.codec(2))
            enc.close()
        assert sink.getvalue() == expected

    def test_shared_pool_abort_discards_quietly(self):
        with CodecThreadPool(2) as pool:
            enc = ParallelBlockEncoder(io.BytesIO(), codec_pool=pool, max_in_flight=4)
            for _ in range(4):
                enc.write_block(b"y" * 2048, LEVELS.codec(3))
            enc.abort()
            assert not pool.closed
            # Pool must still be serviceable after the abort.
            done = threading.Event()
            pool.submit(lambda index: done.set())
            assert done.wait(5.0)

    def test_shared_pool_frames_decode_back(self):
        payloads = self._payloads()
        with CodecThreadPool(2) as pool:
            sink = io.BytesIO()
            enc = ParallelBlockEncoder(sink, codec_pool=pool, max_in_flight=3)
            for data in payloads:
                enc.write_block(data, LEVELS.codec(3))
            enc.close()
        sink.seek(0)
        assert list(BlockReader(sink)) == payloads
