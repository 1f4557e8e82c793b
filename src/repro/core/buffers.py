"""Reusable byte-buffer slabs for the block-framing hot paths.

Every block that crosses the transfer path used to cost fresh
allocations: the encoder built one ``bytearray`` frame per block, the
reader one header buffer and one payload buffer per block.  At the
paper's 128 KB block size a 50 GB transfer performs ~400k such
allocations per side — pure allocator pressure that competes with the
codecs for the same cores the pipeline is trying to saturate.

:class:`BufferPool` removes that per-block cost: it hands out
:class:`PooledBuffer` views carved from a free list of fixed-size
``bytearray`` slabs and takes the slabs back on ``release()``.  Requests
larger than the slab size are served with a one-off allocation (counted
in ``oversize``) so callers never need a size check; requests that find
the free list empty allocate a new slab (a ``miss``) which joins the
pool on release, up to ``max_slabs``.

The pool is thread-safe — the parallel pipelines acquire in their
fetcher/producer threads and release from worker threads — and its
counters (``hits``/``misses``/``oversize``) are plain ints mutated
under the lock, cheap enough to keep unconditionally.  Telemetry stays
zero-cost when idle: the pool itself never publishes; the pipelines
that own a pool publish one
:class:`~repro.telemetry.events.BufferPoolStats` event at close, and
only while a bus subscriber is attached.
"""

from __future__ import annotations

import threading
from typing import List, Optional

__all__ = [
    "BufferPool",
    "PooledBuffer",
    "DEFAULT_SLAB_SIZE",
]

#: Default slab size: the paper's 128 KB block plus generous headroom
#: for codec overhead on incompressible data, so every frame the stock
#: writers produce fits in one slab.
DEFAULT_SLAB_SIZE = 160 * 1024


class PooledBuffer:
    """A writable window over a pool slab (or a one-off allocation).

    ``view`` is a :class:`memoryview` of exactly the requested length;
    fill it with ``readinto``-style calls or slice assignment, hand it
    to codecs/CRC without copying, then ``release()`` it.  After
    ``release()`` the view is invalid — the slab may be handed to
    another caller immediately.
    """

    __slots__ = ("view", "_slab", "_pool")

    def __init__(
        self, slab: bytearray, length: int, pool: Optional["BufferPool"]
    ) -> None:
        self._slab = slab
        self._pool = pool
        self.view = memoryview(slab)[:length]

    def __len__(self) -> int:
        return self.view.nbytes

    def release(self) -> None:
        """Return the slab to its pool.  Idempotent."""
        if self._slab is None:
            return
        self.view.release()
        self.view = None  # type: ignore[assignment]
        slab, self._slab = self._slab, None
        if self._pool is not None:
            self._pool._put_back(slab)
            self._pool = None


class BufferPool:
    """Thread-safe free list of reusable ``bytearray`` slabs."""

    def __init__(
        self, slab_size: int = DEFAULT_SLAB_SIZE, max_slabs: int = 32
    ) -> None:
        if slab_size < 1:
            raise ValueError("slab_size must be >= 1")
        if max_slabs < 1:
            raise ValueError("max_slabs must be >= 1")
        self.slab_size = slab_size
        self.max_slabs = max_slabs
        self._free: List[bytearray] = []
        self._lock = threading.Lock()
        #: Acquires served from the free list.
        self.hits = 0
        #: Acquires that had to allocate a new slab.
        self.misses = 0
        #: Acquires larger than ``slab_size`` (one-off, never pooled).
        self.oversize = 0

    def acquire(self, length: int) -> PooledBuffer:
        """A :class:`PooledBuffer` of exactly ``length`` writable bytes."""
        if length > self.slab_size:
            with self._lock:
                self.oversize += 1
            # Too big for the slab class: serve a one-off allocation
            # that release() simply drops.
            return PooledBuffer(bytearray(length), length, None)
        with self._lock:
            if self._free:
                self.hits += 1
                slab = self._free.pop()
            else:
                self.misses += 1
                slab = bytearray(self.slab_size)
        return PooledBuffer(slab, length, self)

    def _put_back(self, slab: bytearray) -> None:
        with self._lock:
            if len(self._free) < self.max_slabs:
                self._free.append(slab)

    @property
    def free_slabs(self) -> int:
        with self._lock:
            return len(self._free)

    def stats(self) -> dict:
        """Counter snapshot (for telemetry events and tests)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "oversize": self.oversize,
                "free_slabs": len(self._free),
            }

