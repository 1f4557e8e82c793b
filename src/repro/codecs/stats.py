"""Codec measurement utilities.

These helpers time real codecs on real data.  They have two consumers:

* ``benchmarks/bench_codecs.py`` — the per-codec micro-benchmark.
* ``repro.sim.calibration`` — sanity checks that the simulator's codec
  model (speed/ratio per level and compressibility class) stays within
  an order of magnitude of what the actual Python codecs achieve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .base import Codec

#: Floor applied to measured durations when deriving rates.  A timed
#: section faster than the clock can resolve reads as 0 s, and dividing
#: by it yields ``float("inf")`` — which ``json`` happily serialises as
#: the *invalid* token ``Infinity``.  Clamping to the clock's own
#: resolution keeps the rate a finite "at least this fast" bound.
CLOCK_RESOLUTION_SECONDS = max(
    time.get_clock_info("perf_counter").resolution, 1e-9
)


@dataclass(frozen=True)
class CodecMeasurement:
    """One codec measured on one payload."""

    codec_name: str
    payload_bytes: int
    compress_seconds: float
    decompress_seconds: float
    compressed_bytes: int
    #: Did every timed repeat produce output of the same size?  True
    #: for all deterministic codecs; a False here means the ratio below
    #: is not a stable property of (codec, payload).
    ratio_stable: bool = True

    @property
    def ratio(self) -> float:
        """Compressed/original size (smaller is better; 1.0 incompressible)."""
        if self.payload_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.payload_bytes

    @property
    def compress_mb_per_s(self) -> float:
        seconds = max(self.compress_seconds, CLOCK_RESOLUTION_SECONDS)
        return self.payload_bytes / 1e6 / seconds

    @property
    def decompress_mb_per_s(self) -> float:
        seconds = max(self.decompress_seconds, CLOCK_RESOLUTION_SECONDS)
        return self.payload_bytes / 1e6 / seconds


def measure_codec(
    codec: Codec,
    payload: bytes,
    *,
    repeats: int = 3,
    clock: Callable[[], float] = time.perf_counter,
) -> CodecMeasurement:
    """Measure best-of-``repeats`` compress/decompress times on ``payload``."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    compressed = codec.compress(payload)
    best_c = float("inf")
    best_d = float("inf")
    ratio_stable = True
    for _ in range(repeats):
        t0 = clock()
        out = codec.compress(payload)
        best_c = min(best_c, clock() - t0)
        # Best-of-N ratio stability: only the length is compared, so
        # the check costs nothing beyond the compression already done.
        if len(out) != len(compressed):
            ratio_stable = False
        t0 = clock()
        codec.decompress(compressed)
        best_d = min(best_d, clock() - t0)
    return CodecMeasurement(
        codec_name=codec.name,
        payload_bytes=len(payload),
        compress_seconds=best_c,
        decompress_seconds=best_d,
        compressed_bytes=len(compressed),
        ratio_stable=ratio_stable,
    )
