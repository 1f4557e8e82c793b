"""Token-bucket bandwidth throttling for the real I/O path.

Real-mode experiments (examples, ``benchmarks/bench_realio.py``) need
an I/O bottleneck that behaves like the paper's 1 GbE link without
actual network hardware.  A :class:`TokenBucket` caps the byte rate of
anything wrapped in a :class:`ThrottledWriter`.
"""

from __future__ import annotations

import threading
import time
from typing import BinaryIO, Callable


class TokenBucket:
    """Classic token bucket: ``rate`` bytes/s, burst up to ``capacity``.

    ``consume(n)`` blocks (sleeping) until ``n`` tokens are available.
    Thread-safe.  The clock and sleep function are injectable for
    deterministic tests.
    """

    def __init__(
        self,
        rate: float,
        capacity: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.capacity = capacity if capacity is not None else rate / 10.0
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        self._clock = clock
        self._sleep = sleep
        self._tokens = self.capacity
        self._last = clock()
        self._lock = threading.Lock()
        # FIFO turnstile: without it, consumers of small amounts steal
        # every refill out from under a consumer waiting for a large
        # amount, starving it indefinitely (found by
        # tests/io/test_shared_contention.py).
        self._next_ticket = 0
        self._serving = 0

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def consume(self, n: float) -> None:
        """Block until ``n`` tokens have been taken.

        Amounts larger than the bucket capacity are consumed in
        capacity-sized slices.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        remaining = n
        while remaining > 0:
            slice_ = min(remaining, self.capacity)
            with self._lock:
                ticket = self._next_ticket
                self._next_ticket += 1
            while True:
                with self._lock:
                    my_turn = self._serving == ticket
                    if my_turn:
                        self._refill()
                        # The epsilon absorbs float error in refill
                        # arithmetic; without it a deficit of ~1e-16
                        # tokens computes a wait too small to advance
                        # the clock and the loop spins forever.
                        if self._tokens >= slice_ - 1e-9:
                            self._tokens = max(0.0, self._tokens - slice_)
                            self._serving += 1
                            break
                        deficit = slice_ - self._tokens
                if my_turn:
                    wait = max(deficit / self.rate, 1e-6)
                else:
                    # Behind another consumer: poll at a coarse real
                    # interval until it completes.
                    wait = 1e-3
                self._sleep(wait)
            remaining -= slice_


class ThrottledWriter:
    """File-like write wrapper that pays tokens per byte written."""

    def __init__(self, sink: BinaryIO, bucket: TokenBucket) -> None:
        self._sink = sink
        self._bucket = bucket
        self.bytes_written = 0

    def write(self, data: bytes) -> int:
        self._bucket.consume(len(data))
        self._sink.write(data)
        self.bytes_written += len(data)
        return len(data)

    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        self._sink.close()
