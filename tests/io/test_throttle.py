"""Tests for the token bucket and throttled writer."""

from __future__ import annotations

import io

import pytest

from repro.io import ThrottledWriter, TokenBucket


class FakeTime:
    """Deterministic clock + sleep pair for token-bucket tests."""

    def __init__(self) -> None:
        self.now = 0.0
        self.slept = 0.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0
        self.now += seconds
        self.slept += seconds


def make_bucket(rate=100.0, capacity=50.0):
    ft = FakeTime()
    bucket = TokenBucket(rate=rate, capacity=capacity, clock=ft.clock, sleep=ft.sleep)
    return bucket, ft


class TestTokenBucket:
    def test_burst_within_capacity_is_free(self):
        bucket, ft = make_bucket()
        bucket.consume(50.0)
        assert ft.slept == 0.0

    def test_sustained_rate_enforced(self):
        bucket, ft = make_bucket(rate=100.0, capacity=50.0)
        bucket.consume(50.0)  # drains the initial burst
        bucket.consume(100.0)  # needs 1 s of refill
        assert ft.slept == pytest.approx(1.0, rel=0.01)

    def test_large_consume_sliced(self):
        bucket, ft = make_bucket(rate=100.0, capacity=10.0)
        bucket.consume(1000.0)  # 100x capacity
        # ~(1000 - 10)/100 s of sleeping.
        assert ft.slept == pytest.approx(9.9, rel=0.05)

    def test_refill_caps_at_capacity(self):
        bucket, ft = make_bucket(rate=100.0, capacity=10.0)
        bucket.consume(10.0)
        ft.now += 100.0  # long idle
        bucket.consume(10.0)
        assert ft.slept == 0.0
        bucket.consume(1.0)  # not 10_000 tokens: waits for a refill
        assert ft.slept == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=10, capacity=0)
        bucket, _ = make_bucket()
        with pytest.raises(ValueError):
            bucket.consume(-1)


class TestThrottledWriter:
    def test_writes_pass_through(self):
        bucket, _ = make_bucket(rate=1e6, capacity=1e6)
        sink = io.BytesIO()
        writer = ThrottledWriter(sink, bucket)
        writer.write(b"hello")
        writer.flush()
        assert sink.getvalue() == b"hello"
        assert writer.bytes_written == 5

    def test_writes_pay_tokens(self):
        bucket, ft = make_bucket(rate=100.0, capacity=10.0)
        writer = ThrottledWriter(io.BytesIO(), bucket)
        writer.write(b"x" * 110)
        assert ft.slept == pytest.approx(1.0, rel=0.05)
