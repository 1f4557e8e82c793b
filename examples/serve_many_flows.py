#!/usr/bin/env python3
"""Many concurrent adaptive flows through one serve daemon.

The paper's setting is many tenants sharing one cloud I/O bottleneck.
``run_socket_transfer`` demonstrates one adaptive flow; this example
runs a :class:`~repro.serve.TransferServer` — one event-loop thread,
one shared codec pool, one shared buffer pool — and pushes N concurrent
flows of *different compressibility* through it at once.  Half the
flows upload (server decodes, counts and CRC-checks), half round-trip
in echo mode (the server echoes every block at the level that flow's own
adaptive controller picks, sending a NO frame back as received, and the
client verifies the stream byte-for-byte).

Also the CI smoke driver: exits non-zero if any flow fails
verification, so ``timeout N python examples/serve_many_flows.py``
is a complete daemon health check.

Run:  python examples/serve_many_flows.py [--flows 8] [--mib 4]
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from repro.data import Compressibility, SyntheticCorpus
from repro.serve import ServeClient, ServeConfig, TransferServer

CLASSES = (Compressibility.HIGH, Compressibility.MODERATE, Compressibility.LOW)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--flows", type=int, default=8)
    parser.add_argument("--mib", type=int, default=4, help="payload MiB per flow")
    args = parser.parse_args(argv)

    corpus = SyntheticCorpus(file_size=256 * 1024, seed=5)
    payloads = {
        cls: (corpus.payload(cls) * (args.mib * 4 + 1))[: args.mib * 2**20]
        for cls in CLASSES
    }

    server = TransferServer(ServeConfig(port=0, max_flows=args.flows)).start()
    host, port = server.address
    print(
        f"daemon on {host}:{port} — 1 loop thread, "
        f"{server.codec_pool.workers} shared codec workers, "
        f"{args.flows} concurrent flows x {args.mib} MiB\n"
    )

    lines: list = []
    failures: list = []

    def run(i: int) -> None:
        cls = CLASSES[i % len(CLASSES)]
        data = payloads[cls]
        mode = "echo" if i % 2 else "sink"
        try:
            client = ServeClient(host, port, timeout=120.0)
            if mode == "echo":
                result = client.echo(data, collect=False)
            else:
                result = client.upload(data)
            lines.append(
                f"flow {result.flow_id:2d} {mode:4s} {cls.value:9s} "
                f"{result.app_bytes / result.seconds / 1e6:7.1f} MB/s  "
                f"ratio {result.compression_ratio:.3f}  verified"
            )
        except Exception as exc:  # noqa: BLE001 - reported as failure
            failures.append(f"flow {i} ({mode}, {cls.value}): {exc!r}")

    threads = [threading.Thread(target=run, args=(i,)) for i in range(args.flows)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    server.stop(drain=True, timeout=30.0)

    for line in sorted(lines):
        print(line)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    total = args.flows * args.mib * 2**20
    print(
        f"\n{len(lines)}/{args.flows} flows verified in {wall:.2f}s "
        f"({total / wall / 1e6:.1f} MB/s aggregate); "
        f"server: {server.flows_completed} completed, "
        f"{server.flows_failed} failed; shared pool ran "
        f"{server.codec_pool.stats()['jobs_completed']} codec jobs on "
        f"{server.codec_pool.workers} threads"
    )
    return 1 if failures or server.flows_failed else 0


if __name__ == "__main__":
    sys.exit(main())
