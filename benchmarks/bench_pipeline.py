"""Throughput matrix for the parallel block pipelines, both directions.

Standalone script (not a pytest-benchmark file).  For every
(direction, compressibility class, level) row it first times the serial
path — :class:`~repro.codecs.block.BlockWriter` to encode,
:class:`~repro.codecs.block.BlockReader` to decode — and then
:class:`~repro.core.pipeline.ParallelBlockEncoder` or
:class:`~repro.core.pipeline.ParallelBlockDecoder` at 1/2/4/8 worker
threads.  Every speedup is measured against that row's serial cell.  The full matrix goes to ``BENCH_pipeline.json``; in ``--quick``
mode the CI regression gate is enforced.

The gates are core-aware because workers can only buy throughput where
there are cores to run them:

* Encode, 4-worker MEDIUM on compressible data: not below serial with
  >= 2 usable cores (every hosted CI runner); >= 75 % of serial on a
  single core, where nothing can overlap; and >= 2x in full runs with
  >= 4 usable cores.
* Decode: the pipeline at **1 worker** keeps >= 95 % of serial on any
  box (the fetch/queue/reassemble machinery may cost at most 5 %).
  4-worker MEDIUM/HEAVY is not below serial with >= 2 cores, and
  >= 1.8x in full runs with >= 4 cores.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--quick]
        [--mib 16] [--repeats 3] [--out BENCH_pipeline.json]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import sys
import time
from functools import partial

from repro.codecs.block import BlockReader, BlockWriter
from repro.codecs.bz2_codec import Bz2Codec
from repro.codecs.lzma_codec import LzmaCodec
from repro.codecs.null_codec import NullCodec
from repro.codecs.zlib_codec import LightZlibCodec
from repro.core.buffers import BufferPool
from repro.core.pipeline import ParallelBlockDecoder, ParallelBlockEncoder
from repro.data.corpus import Compressibility, generate

BLOCK_SIZE = 128 * 1024

#: The paper's ladder, with bz2 as MEDIUM: unlike zlib-6 (which is so
#: fast the framing overhead dominates), bz2 is CPU-bound at 128 KB
#: blocks, so MEDIUM is where a parallel pipeline should visibly pay.
LEVELS = (
    ("NO", NullCodec),
    ("LIGHT", LightZlibCodec),
    ("MEDIUM", Bz2Codec),
    ("HEAVY", lambda: LzmaCodec(preset=4)),
)

WORKER_COUNTS = (1, 2, 4, 8)

DIRECTIONS = ("encode", "decode")


class NullSink:
    """Counting sink that discards frames (isolates compression cost)."""

    def __init__(self) -> None:
        self.nbytes = 0

    def write(self, data) -> int:
        n = data.nbytes if isinstance(data, memoryview) else len(data)
        self.nbytes += n
        return n


def core_info() -> dict:
    """Affinity-aware core detection, with the raw inputs preserved.

    ``sched_getaffinity`` is the truth when it works (it sees cgroup
    pinning), but it is missing on some platforms and can fail inside
    exotic sandboxes — fall back to ``os.cpu_count()`` then, and record
    *both* numbers so a benchmark artifact can always be audited for
    which one drove the gate.
    """
    affinity = None
    if hasattr(os, "sched_getaffinity"):
        try:
            affinity = len(os.sched_getaffinity(0))
        except OSError:
            affinity = None
    cpu_count = os.cpu_count() or 1
    return {
        "affinity_cores": affinity,
        "cpu_count": cpu_count,
        "usable_cores": affinity if affinity is not None else cpu_count,
    }


def encode_stream(data: bytes, codec) -> bytes:
    """Frame ``data`` into one serial block stream."""
    sink = io.BytesIO()
    writer = BlockWriter(sink)
    with memoryview(data) as view:
        for offset in range(0, len(data), BLOCK_SIZE):
            writer.write_block(view[offset : offset + BLOCK_SIZE], codec)
    return sink.getvalue()


def encode_pass(data: bytes, codec, workers: int) -> tuple[float, int]:
    """Frame ``data`` once; (seconds, wire bytes).

    ``workers=0`` selects the serial :class:`BlockWriter`; any other
    count runs the :class:`ParallelBlockEncoder`, so the 1-worker cell
    measures the pipeline machinery's own overhead.
    """
    sink = NullSink()
    if workers == 0:
        encoder = BlockWriter(sink)
    else:
        encoder = ParallelBlockEncoder(sink, workers=workers)
    t0 = time.perf_counter()
    with memoryview(data) as view:
        for offset in range(0, len(data), BLOCK_SIZE):
            encoder.write_block(view[offset : offset + BLOCK_SIZE], codec)
        encoder.flush()
    elapsed = time.perf_counter() - t0
    encoder.close()
    return elapsed, sink.nbytes


def decode_pass(stream: bytes, workers: int) -> tuple[float, int]:
    """Decode ``stream`` once; (seconds, plaintext bytes).

    ``workers=0`` selects the serial :class:`BlockReader`; any other
    count runs the :class:`ParallelBlockDecoder`.
    """
    source = io.BytesIO(stream)
    pool = BufferPool()
    if workers == 0:
        decoder = BlockReader(source, pool=pool)
    else:
        decoder = ParallelBlockDecoder(source, workers=workers, pool=pool)
    out = 0
    t0 = time.perf_counter()
    for block in decoder:
        out += len(block)
    elapsed = time.perf_counter() - t0
    decoder.close()
    return elapsed, out


def run_matrix(mib: int, repeats: int, worker_counts, levels, classes) -> dict:
    """Best-of-``repeats`` seconds for every matrix cell."""
    total = mib * 2**20
    results = []
    for cls in classes:
        data = generate(cls, total, seed=11)
        for level_name, codec_factory in levels:
            codec = codec_factory()
            stream = encode_stream(data, codec)
            passes = {
                # direction -> (one pass, bytes every pass must produce)
                "encode": (partial(encode_pass, data, codec), len(stream)),
                "decode": (partial(decode_pass, stream), total),
            }
            for direction in DIRECTIONS:
                one_pass, expected = passes[direction]
                base = {
                    "direction": direction,
                    "class": cls.value,
                    "level": level_name,
                    "codec": codec.name,
                    "ratio": round(len(stream) / total, 4),
                }
                serial_s = None
                for workers in (0, *worker_counts):
                    best_s, out = min(
                        (one_pass(workers) for _ in range(repeats)),
                        key=lambda pair: pair[0],
                    )
                    assert out == expected, (
                        f"{direction} produced {out} bytes, expected {expected} "
                        f"at workers={workers}"
                    )
                    if workers == 0:
                        serial_s = best_s
                    cell = {
                        **base,
                        "workers": workers,
                        "seconds": round(best_s, 4),
                        "mb_per_s": round(total / best_s / 1e6, 2),
                        "speedup_vs_serial": round(serial_s / best_s, 3),
                    }
                    results.append(cell)
                    print(
                        f"  {direction} {cls.value:8s} {level_name:6s} "
                        f"workers={workers or 'serial':<6}  "
                        f"{cell['mb_per_s']:8.1f} MB/s  "
                        f"speedup {cell['speedup_vs_serial']:.2f}x",
                        flush=True,
                    )
    return {
        "meta": {
            "block_size": BLOCK_SIZE,
            "payload_mib": mib,
            "repeats": repeats,
            **core_info(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "results": results,
    }


def _cell(payload: dict, direction: str, cls: str, level: str, workers: int) -> dict:
    for cell in payload["results"]:
        if (
            cell["direction"] == direction
            and cell["class"] == cls
            and cell["level"] == level
            and cell["workers"] == workers
        ):
            return cell
    raise KeyError(f"no {direction} cell for {cls}/{level}/workers={workers}")


def check_gate(payload: dict, *, quick: bool) -> list[str]:
    """Return failure messages (empty = gate passed).

    A rule is skipped only when its level was not part of the run; a
    cell missing from a measured level is itself a failure, so no gate
    can go quiet on a lookup that misses.
    """
    cores = payload["meta"]["usable_cores"]
    measured = {cell["level"] for cell in payload["results"]}
    failures = []
    try:
        for cls in ("HIGH", "MODERATE"):
            speedup = _cell(payload, "encode", cls, "MEDIUM", 4)["speedup_vs_serial"]
            if cores >= 2 and speedup < 1.0:
                failures.append(
                    f"encode {cls}/MEDIUM: 4 workers below serial ({speedup:.2f}x) "
                    f"with {cores} cores available"
                )
            elif cores < 2 and speedup < 0.75:
                failures.append(
                    f"encode {cls}/MEDIUM: single-core pipeline overhead too high "
                    f"({speedup:.2f}x of serial, floor is 0.75x)"
                )
            if not quick and cores >= 4 and speedup < 2.0:
                failures.append(
                    f"encode {cls}/MEDIUM: expected >=2x at 4 workers with "
                    f"{cores} cores, got {speedup:.2f}x"
                )
            for level in ("MEDIUM", "HEAVY"):
                if level not in measured:
                    continue
                # Overhead floor holds on any box, 1 core included: at
                # one worker nothing overlaps, so this isolates the
                # pipeline machinery's own cost.
                one = _cell(payload, "decode", cls, level, 1)["speedup_vs_serial"]
                if one < 0.95:
                    failures.append(
                        f"decode {cls}/{level}: 1-worker pipeline overhead above "
                        f"5% ({one:.3f}x of serial)"
                    )
                speedup = _cell(payload, "decode", cls, level, 4)["speedup_vs_serial"]
                if cores >= 2 and speedup < 1.0:
                    failures.append(
                        f"decode {cls}/{level}: 4 workers below serial "
                        f"({speedup:.2f}x) with {cores} cores available"
                    )
                if not quick and cores >= 4 and speedup < 1.8:
                    failures.append(
                        f"decode {cls}/{level}: expected >=1.8x at 4 workers "
                        f"with {cores} cores, got {speedup:.2f}x"
                    )
    except KeyError as exc:
        failures.append(f"gate cell missing: {exc.args[0]}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small payload, MEDIUM level only, gate enforced",
    )
    parser.add_argument("--mib", type=int, default=None, help="payload MiB per class")
    parser.add_argument("--repeats", type=int, default=None, help="passes per cell")
    parser.add_argument(
        "--out", default="BENCH_pipeline.json", help="JSON output path"
    )
    args = parser.parse_args(argv)

    if args.quick:
        mib = args.mib or 4
        repeats = args.repeats or 3
        worker_counts = (1, 4)
        levels = [lv for lv in LEVELS if lv[0] == "MEDIUM"]
        classes = (Compressibility.HIGH, Compressibility.MODERATE)
    else:
        mib = args.mib or 16
        repeats = args.repeats or 3
        worker_counts = WORKER_COUNTS
        levels = LEVELS
        classes = tuple(Compressibility)

    print(
        f"pipeline benchmark: {mib} MiB/class, repeats={repeats}, "
        f"usable cores={core_info()['usable_cores']}",
        flush=True,
    )
    payload = run_matrix(mib, repeats, worker_counts, levels, classes)
    with open(args.out, "w") as fp:
        json.dump(payload, fp, indent=2)
    print(f"matrix written to {args.out}")

    failures = check_gate(payload, quick=args.quick)
    for failure in failures:
        print(f"GATE FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("gate passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
