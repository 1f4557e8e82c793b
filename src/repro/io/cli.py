"""``repro-compress`` and ``repro-telemetry`` — the shell front ends.

``repro-compress`` subcommands:

* ``pack SRC DST`` — compress a file into the self-contained block
  format, adaptively by default (``--level`` forces a static level).
* ``unpack SRC DST`` — restore; every block names its codec, so the
  only knob is ``--workers`` for parallel decompression.
* ``info FILE`` — inspect a packed file without decompressing: block
  count, per-codec histogram, ratios (shows which levels the adaptive
  scheme actually chose over the course of the stream).
* ``serve`` — run a :class:`~repro.serve.TransferServer` daemon: one
  event loop multiplexing many concurrent compressed flows, with
  admission control and graceful drain on SIGTERM/SIGINT.

Both entry points exit 130 on Ctrl-C and 0 on a broken output pipe
(``repro-compress info ... | head`` must not stack-trace), matching
shell conventions.

``repro-telemetry`` subcommands:

* ``report TRACE.jsonl`` — render a run report (event counts,
  histogram summaries, level-switch timeline) from a JSONL trace
  written by :class:`repro.telemetry.exporters.JsonlExporter`, e.g. by
  ``examples/telemetry_run.py`` or any ``instrumented(...)`` run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys

from ..codecs.inspect import scan_block_stream
from ..core.levels import PAPER_LEVEL_NAMES, default_level_table
from ..telemetry.report import load_trace, render_report, summarize
from .streams import compress_file, decompress_file


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-compress",
        description="Adaptive online compression (Hovestadt et al., IPDPS 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="compress a file")
    pack.add_argument("src")
    pack.add_argument("dst")
    pack.add_argument(
        "--level",
        choices=[*PAPER_LEVEL_NAMES, "adaptive"],
        default="adaptive",
        help="static level or 'adaptive' (default)",
    )
    pack.add_argument(
        "--block-size", type=int, default=128 * 1024, help="block payload bytes"
    )
    pack.add_argument(
        "--epoch-seconds",
        type=float,
        default=0.25,
        help="adaptive re-decision interval",
    )
    pack.add_argument(
        "--workers",
        type=int,
        default=1,
        help="compression workers (1 = serial; output is identical)",
    )

    unpack = sub.add_parser("unpack", help="restore a packed file")
    unpack.add_argument("src")
    unpack.add_argument("dst")
    unpack.add_argument(
        "--workers",
        type=int,
        default=1,
        help="decompression workers (1 = serial; output is identical)",
    )

    info = sub.add_parser("info", help="inspect a packed file")
    info.add_argument("file")

    serve = sub.add_parser("serve", help="run a multi-flow transfer daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument(
        "--max-flows", type=int, default=64, help="admission cap on concurrent flows"
    )
    serve.add_argument(
        "--backlog", type=int, default=128, help="listen(2) backlog for the socket"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shared codec workers (0 = auto)",
    )
    serve.add_argument(
        "--level",
        choices=[*PAPER_LEVEL_NAMES, "adaptive"],
        default="adaptive",
        help="echo-mode re-encode level (default adaptive, per flow)",
    )
    serve.add_argument(
        "--epoch-seconds",
        type=float,
        default=0.25,
        help="per-flow adaptive re-decision interval (echo mode)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=0.0,
        help="seconds before an inactive flow is dropped (0 = never)",
    )
    serve.add_argument(
        "--policy",
        default=None,
        help="fleet allocation policy (fair-share, greedy-throughput, "
        "hill-climb); default: per-flow adaptation only",
    )
    serve.add_argument(
        "--control-interval",
        type=float,
        default=1.0,
        help="seconds between fleet policy passes (with --policy)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="grace period for in-flight flows after SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--admin-port",
        type=int,
        default=None,
        help="serve /metrics, /healthz, /flows and POST /reload on this "
        "port (0 picks a free port; default: no admin endpoint)",
    )
    serve.add_argument(
        "--admin-host",
        default="127.0.0.1",
        help="bind address for the admin endpoint (default 127.0.0.1)",
    )
    serve.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON file of reloadable settings (level, policy, "
        "control_interval, idle_timeout, max_flows, max_queued_jobs); "
        "applied at startup and re-read on SIGHUP or empty POST /reload",
    )
    serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write one v2 replay trace per echo flow at close "
        "(replayable with repro.schemes.replay)",
    )
    return parser


def _load_serve_config(path: str) -> dict:
    """Read a ``--config`` file: a JSON object of reloadable keys.

    Only the key names are checked here; the values go through
    ``ServeConfig``'s validator, at startup and on every reload.
    """
    from ..serve import RELOADABLE_KEYS

    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(RELOADABLE_KEYS)
    if unknown:
        raise ValueError(f"config file {path}: unknown keys {sorted(unknown)}")
    return data


def cmd_pack(args: argparse.Namespace) -> int:
    static_level = None
    if args.level != "adaptive":
        static_level = default_level_table().index_of(args.level)
    try:
        result = compress_file(
            args.src,
            args.dst,
            static_level=static_level,
            block_size=args.block_size,
            epoch_seconds=args.epoch_seconds,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{result.input_bytes:,} -> {result.output_bytes:,} bytes "
        f"(ratio {result.ratio:.3f}) in {result.wall_seconds:.2f}s"
    )
    return 0


def cmd_unpack(args: argparse.Namespace) -> int:
    nbytes = decompress_file(args.src, args.dst, workers=args.workers)
    print(f"restored {nbytes:,} bytes")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    with open(args.file, "rb") as fp:
        info = scan_block_stream(fp)
    if info.blocks == 0:
        print("empty stream")
        return 0
    print(
        f"{info.blocks} blocks, {info.uncompressed_bytes:,} -> "
        f"{info.stream_bytes:,} bytes (ratio {info.ratio:.3f})"
    )
    for usage in sorted(info.per_codec.values(), key=lambda u: -u.blocks):
        print(
            f"  {usage.codec_name:20s} {usage.blocks:6d} blocks  "
            f"ratio {usage.ratio:.3f}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from ..serve import AdminServer, ServeConfig, TransferServer

    settings = dict(
        host=args.host,
        port=args.port,
        max_flows=args.max_flows,
        backlog=args.backlog,
        codec_workers=args.workers,
        level=args.level,
        epoch_seconds=args.epoch_seconds,
        idle_timeout=args.idle_timeout,
        policy=args.policy,
        control_interval=args.control_interval,
        trace_dir=args.trace_dir,
    )
    try:
        # A --config file wins over the matching CLI flags at startup,
        # so the file is the single source of truth that SIGHUP re-reads.
        if args.config:
            settings.update(_load_serve_config(args.config))
        config = ServeConfig(**settings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = TransferServer(config)

    def _drain(signum, frame):  # pragma: no cover - signal path
        server.request_drain(args.drain_timeout)

    def _reload(signum, frame):  # pragma: no cover - signal path
        try:
            server.request_reload(_load_serve_config(args.config))
        except (OSError, ValueError) as exc:
            print(f"reload failed: {exc}", file=sys.stderr, flush=True)

    try:
        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
        if args.config and hasattr(signal, "SIGHUP"):
            signal.signal(signal.SIGHUP, _reload)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    host, port = server.address
    print(f"serving on {host}:{port}", flush=True)
    with contextlib.ExitStack() as stack:
        if args.admin_port is not None:
            from ..telemetry import instrumented

            # The admin endpoint is what makes telemetry worth paying
            # for in a daemon: attach the metric bridge so /metrics has
            # live registry series alongside the per-flow gauges.
            session = stack.enter_context(instrumented())
            admin = stack.enter_context(
                AdminServer(
                    server,
                    host=args.admin_host,
                    port=args.admin_port,
                    registry=session.registry,
                    config_source=(
                        (lambda: _load_serve_config(args.config))
                        if args.config
                        else None
                    ),
                )
            )
            print(f"admin on {admin.address[0]}:{admin.address[1]}", flush=True)
        server.serve_forever()
    print(
        f"drained: {server.flows_completed} completed, "
        f"{server.flows_failed} failed, {server.flows_rejected} rejected",
        flush=True,
    )
    return 0


def _run(handler, args) -> int:
    """Shared top level: map interrupts and dead pipes to shell codes."""
    try:
        return handler(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout's consumer went away (e.g. `... | head`).  Point the fd
        # at devnull so interpreter-exit flushing cannot trip over it.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # no real fd (captured stdout)
            pass
        return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "pack": cmd_pack,
        "unpack": cmd_unpack,
        "info": cmd_info,
        "serve": cmd_serve,
    }
    return _run(handlers[args.command], args)


# -- repro-telemetry ------------------------------------------------


def build_telemetry_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-telemetry",
        description="Inspect JSONL telemetry traces of adaptive-compression runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="render a run report from a trace")
    report.add_argument("trace", help="JSONL trace file (JsonlExporter output)")
    report.add_argument(
        "--max-switches",
        type=int,
        default=20,
        help="level switches to show in the timeline (default 20)",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of text",
    )
    return parser


def cmd_telemetry_report(args: argparse.Namespace) -> int:
    summary = summarize(load_trace(args.trace))
    if args.json:
        print(
            json.dumps(
                {
                    "total_events": summary.total_events,
                    "counts_by_type": summary.counts_by_type,
                    "epochs": summary.epochs,
                    "app_bytes": summary.app_bytes,
                    "trace_span_seconds": summary.last_ts - summary.first_ts,
                    "level_occupancy": {
                        str(k): v for k, v in sorted(summary.levels_seen.items())
                    },
                    "level_switches": [
                        {"ts": ts, "from": a, "to": b} for ts, a, b in summary.switches
                    ],
                    "backoff": summary.backoff,
                    "app_rate_mbps": summary.app_rate_mbps.summary(),
                    "compress_seconds": summary.compress_seconds.summary(),
                    "decompress_seconds": summary.decompress_seconds.summary(),
                },
                indent=2,
                allow_nan=False,
            )
        )
    else:
        print(render_report(summary, max_switches=args.max_switches))
    return 0


def telemetry_main(argv=None) -> int:
    args = build_telemetry_parser().parse_args(argv)

    def handler(ns):
        try:
            return {"report": cmd_telemetry_report}[ns.command](ns)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    return _run(handler, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
