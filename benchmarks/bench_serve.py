"""Concurrency scaling benchmark for the repro.serve daemon.

Standalone script (not a pytest-benchmark file): it starts one
:class:`~repro.serve.TransferServer` and drives 1, 4 and 16 concurrent
client flows through it, measuring aggregate and per-flow application
throughput, then writes ``BENCH_serve.json`` and — in ``--quick`` mode
— enforces the CI regression gate.  Each concurrency level runs
:data:`SCALING_ROUNDS` times on a fresh daemon; the cell records every
round and keeps the median one, whose throughput the gate reads.

Every flow is CRC-verified end to end by :class:`~repro.serve.ServeClient`
(the trailer carries the server's plaintext CRC32), so a passing run is
also a 16-way byte-identity check, not just a stopwatch.

The gate is deliberately conservative, because hosted CI runners vary
wildly in cores and background load:

* every flow at every concurrency level must complete verified, and
  the server must report zero failed flows (correctness gate, always);
* multiplexing must not *collapse*: aggregate throughput at 16 flows
  must stay above 25 % of the single-flow aggregate (the event loop
  and the shared codec pool are allowed to be saturated, but a fair
  scheduler should never be 4x worse than one flow doing the same
  total work);
* with >= 2 usable cores, 4 flows must move at least as much aggregate
  data per second as 60 % of 1 flow (shared-pool contention bound).

``--control`` switches to the contended-fleet axis instead: a fixed
flow count on a deliberately capped codec pool, once per fleet policy
(uncontrolled, fair-share, greedy-throughput), written to
``BENCH_control.json``.  Its gate asserts that turning the fair-share
control plane on never costs more than 5 % of the uncontrolled
aggregate throughput — the controller must be free when it has nothing
to say.  Each policy keeps the best of ``--repeats`` rounds, so the
ratio compares substrates, not scheduler jitter.

``--slo`` runs the *operability* axis: one instrumented daemon with the
admin endpoint attached, 16 concurrent echo flows, a live ``/metrics``
scrape and ``/healthz`` probe mid-load, a codec-queue-depth sampler,
and an offline resync-recovery measurement over a corrupted block
stream.  The measured values land under an ``"slo"`` key *merged into*
``BENCH_serve.json`` (alongside any scaling rounds already recorded)
together with the thresholds the gate enforced — p99 block codec
latency, queue-depth ceiling, resync recovery time, scrape latency —
so the artifact documents both the promise and the evidence.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick]
        [--mib 8] [--out BENCH_serve.json]
        [--control] [--repeats 2] [--control-out BENCH_control.json]
        [--slo]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time

from bench_pipeline import core_info

from repro.data.corpus import Compressibility, generate
from repro.serve import ServeClient, ServeConfig, TransferServer

FLOW_COUNTS = (1, 4, 16)

#: Rounds per flow-count cell of the scaling axis.  Every round is
#: recorded; the cell's throughput, which the gate reads, is the median.
SCALING_ROUNDS = 3

#: Contended-fleet axis: enough flows to oversubscribe the capped pool.
CONTROL_FLOWS = 8
CONTROL_POLICIES = (None, "fair-share", "greedy-throughput")


def run_round(
    data: bytes,
    flows: int,
    codec_workers: int,
    policy: str | None = None,
    control_interval: float = 1.0,
) -> dict:
    """One daemon, ``flows`` concurrent uploads; aggregate + per-flow stats."""
    server = TransferServer(
        ServeConfig(
            port=0,
            max_flows=flows + 4,
            codec_workers=codec_workers,
            policy=policy,
            control_interval=control_interval,
        )
    ).start()
    host, port = server.address
    results = [None] * flows
    errors: list = []

    def run(i: int) -> None:
        try:
            client = ServeClient(host, port, timeout=120.0)
            results[i] = client.upload(data, level="LIGHT")
        except Exception as exc:  # noqa: BLE001 - recorded for the gate
            errors.append(f"flow {i}: {exc!r}")

    threads = [threading.Thread(target=run, args=(i,)) for i in range(flows)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    # Read the *resolved* worker count off the live server: the config
    # value may be 0 (= auto), and recording that instead of what
    # actually ran made earlier artifacts unauditable.
    codec_workers_resolved = server.codec_workers
    rebalances = server.controller.rebalances if server.controller else 0
    server.stop(drain=True, timeout=30.0)

    flow_seconds = [r.seconds for r in results if r is not None]
    total_app = len(data) * len(flow_seconds)
    return {
        "flows": flows,
        "policy": policy or "uncontrolled",
        "rebalances": rebalances,
        "completed": len(flow_seconds),
        "codec_workers_resolved": codec_workers_resolved,
        "errors": errors,
        "server_failed_flows": server.flows_failed,
        "wall_seconds": round(wall, 4),
        "aggregate_mb_per_s": round(total_app / wall / 1e6, 2) if wall else 0.0,
        "per_flow_mb_per_s": round(len(data) / (sum(flow_seconds) / len(flow_seconds)) / 1e6, 2)
        if flow_seconds
        else 0.0,
        "flow_seconds_min": round(min(flow_seconds), 4) if flow_seconds else None,
        "flow_seconds_max": round(max(flow_seconds), 4) if flow_seconds else None,
        "codec_pool": server.codec_stats(),
        "buffer_pool": server.buffer_pool.stats(),
    }


def run_cell(data: bytes, flows: int, codec_workers: int) -> dict:
    """:data:`SCALING_ROUNDS` rounds of one cell: the median round, with
    every round under ``repeats``.  Completion and failure counts cover
    all rounds, so the correctness gate still sees each one."""
    repeats = [
        run_round(data, flows, codec_workers) for _ in range(SCALING_ROUNDS)
    ]
    ranked = sorted(repeats, key=lambda r: r["aggregate_mb_per_s"])
    cell = dict(ranked[len(ranked) // 2])
    cell["completed"] = min(r["completed"] for r in repeats)
    cell["errors"] = [e for r in repeats for e in r["errors"]]
    cell["server_failed_flows"] = sum(r["server_failed_flows"] for r in repeats)
    cell["repeats"] = [
        {k: v for k, v in r.items() if k not in ("codec_pool", "buffer_pool")}
        for r in repeats
    ]
    return cell


def run_matrix(mib: int, codec_workers: int, flow_counts) -> dict:
    data = generate(Compressibility.MODERATE, mib * 2**20, seed=13)
    rounds = []
    for flows in flow_counts:
        cell = run_cell(data, flows, codec_workers)
        rounds.append(cell)
        print(
            f"  flows={flows:3d}  "
            f"aggregate {cell['aggregate_mb_per_s']:8.1f} MB/s (median of "
            f"{[r['aggregate_mb_per_s'] for r in cell['repeats']]})  "
            f"wall {cell['wall_seconds']:.2f}s  "
            f"completed {cell['completed']}/{flows}",
            flush=True,
        )
    return {
        "meta": {
            "payload_mib_per_flow": mib,
            # Both sides of the auto-sizing: what was asked for (0 =
            # auto) and what every round's daemon actually ran with.
            "codec_workers_requested": codec_workers,
            "codec_workers_resolved": rounds[0]["codec_workers_resolved"]
            if rounds
            else None,
            **core_info(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "rounds": rounds,
    }


def _round(payload: dict, flows: int) -> dict:
    for cell in payload["rounds"]:
        if cell["flows"] == flows:
            return cell
    raise KeyError(f"no round for flows={flows}")


def check_gate(payload: dict) -> list[str]:
    """Return failure messages (empty = gate passed)."""
    failures = []
    for cell in payload["rounds"]:
        if cell["completed"] != cell["flows"] or cell["errors"]:
            failures.append(
                f"flows={cell['flows']}: only "
                f"{cell['completed']} of {cell['flows']} flows completed "
                f"verified ({cell['errors'][:2]})"
            )
        if cell["server_failed_flows"]:
            failures.append(
                f"flows={cell['flows']}: server "
                f"reported {cell['server_failed_flows']} failed flows"
            )
    if failures:
        return failures  # throughput ratios are meaningless on failures
    cores = payload["meta"]["usable_cores"]
    base = _round(payload, 1)["aggregate_mb_per_s"]
    if base <= 0:
        return ["single-flow round produced no throughput sample"]
    sixteen = _round(payload, 16)["aggregate_mb_per_s"]
    if sixteen < 0.25 * base:
        failures.append(
            f"16-flow aggregate collapsed: {sixteen:.1f} MB/s "
            f"vs {base:.1f} MB/s single-flow (floor 25%)"
        )
    if cores >= 2:
        four = _round(payload, 4)["aggregate_mb_per_s"]
        if four < 0.6 * base:
            failures.append(
                f"4-flow aggregate {four:.1f} MB/s below 60% "
                f"of single-flow {base:.1f} MB/s with {cores} cores"
            )
    return failures


def run_control_matrix(
    mib: int,
    codec_workers: int,
    flow_count: int = CONTROL_FLOWS,
    policies=CONTROL_POLICIES,
    repeats: int = 2,
) -> dict:
    """Contended fleet, one best-of-``repeats`` round per fleet policy.

    The pool is capped at two workers regardless of the host so the
    flows genuinely contend, which is the regime the control plane
    exists for — on an idle many-core box the policies would never be
    asked to arbitrate anything.
    """
    data = generate(Compressibility.MODERATE, mib * 2**20, seed=13)
    workers = codec_workers or 2
    rounds = []
    for policy in policies:
        best = None
        for _ in range(max(1, repeats)):
            cell = run_round(
                data,
                flow_count,
                workers,
                policy=policy,
                control_interval=0.25,
            )
            if best is None or (
                not cell["errors"]
                and cell["aggregate_mb_per_s"] > best["aggregate_mb_per_s"]
            ):
                best = cell
        rounds.append(best)
        print(
            f"  policy={best['policy']:18s} aggregate "
            f"{best['aggregate_mb_per_s']:8.1f} MB/s  "
            f"wall {best['wall_seconds']:.2f}s  "
            f"rebalances {best['rebalances']}  "
            f"completed {best['completed']}/{flow_count}",
            flush=True,
        )
    return {
        "meta": {
            "axis": "contended-fleet",
            "payload_mib_per_flow": mib,
            "flow_count": flow_count,
            "codec_workers": workers,
            "repeats": repeats,
            **core_info(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "rounds": rounds,
    }


def _policy_round(payload: dict, policy: str) -> dict:
    for cell in payload["rounds"]:
        if cell["policy"] == policy:
            return cell
    raise KeyError(f"no round for policy={policy}")


def check_control_gate(payload: dict) -> list[str]:
    """Return failure messages for the contended-fleet axis."""
    failures = []
    for cell in payload["rounds"]:
        if cell["completed"] != cell["flows"] or cell["errors"]:
            failures.append(
                f"policy={cell['policy']}: only {cell['completed']} of "
                f"{cell['flows']} flows completed verified "
                f"({cell['errors'][:2]})"
            )
        if cell["server_failed_flows"]:
            failures.append(
                f"policy={cell['policy']}: server reported "
                f"{cell['server_failed_flows']} failed flows"
            )
    if failures:
        return failures
    base = _policy_round(payload, "uncontrolled")["aggregate_mb_per_s"]
    if base <= 0:
        return ["uncontrolled round produced no throughput sample"]
    fair = _policy_round(payload, "fair-share")
    if fair["aggregate_mb_per_s"] < 0.95 * base:
        failures.append(
            f"fair-share collapsed the fleet: {fair['aggregate_mb_per_s']:.1f} "
            f"MB/s vs {base:.1f} MB/s uncontrolled (floor 95%)"
        )
    if fair["rebalances"] == 0:
        failures.append(
            "fair-share round recorded zero policy passes — the control "
            "plane never ran, so the ratio proves nothing"
        )
    return failures


# -- operability / SLO axis -----------------------------------------

SLO_FLOWS = 16

#: The service-level objectives the --slo gate enforces.  Deliberately
#: loose for shared CI runners: these catch order-of-magnitude
#: operability regressions (a stuck queue, a seconds-long block stall,
#: resync scanning the whole stream), not few-percent drift.
SLO_THRESHOLDS = {
    "p99_decode_seconds_max": 0.5,
    "p99_encode_seconds_max": 0.5,
    "queue_depth_max": 8 * SLO_FLOWS,
    "resync_recovery_seconds_max": 2.0,
    "resync_blocks_skipped_max": 2,
    "metrics_scrape_seconds_max": 2.0,
}

#: Longest the SLO run waits for the first flow to open before its
#: mid-load scrape.
SCRAPE_OPEN_DEADLINE_SECONDS = 10.0


def measure_resync(mib: int) -> dict:
    """Corrupt one block mid-stream; time the full resync read.

    Returns recovery wall time plus the scanner's damage accounting —
    the operability question is "when a tenant ships us a damaged
    stream, how long until the daemon is decoding good blocks again,
    and how much does it lose?".
    """
    import io

    from repro.codecs.block import encode_block
    from repro.core.levels import default_level_table
    from repro.core.recovery import ResyncBlockReader

    data = generate(Compressibility.MODERATE, mib * 2**20, seed=29)
    codec = default_level_table().codec(1)
    block_size = 128 * 1024
    stream = io.BytesIO()
    offsets = []
    for off in range(0, len(data), block_size):
        offsets.append(stream.tell())
        block = encode_block(data[off : off + block_size], codec)
        stream.write(bytes(block.frame))
    # Flip one byte inside the payload of the middle block.
    raw = bytearray(stream.getvalue())
    victim = offsets[len(offsets) // 2] + 64
    raw[victim] ^= 0xFF
    reader = ResyncBlockReader(io.BytesIO(bytes(raw)))
    t0 = time.perf_counter()
    recovered = sum(len(chunk) for chunk in reader)
    recovery_seconds = time.perf_counter() - t0
    return {
        "stream_bytes": len(raw),
        "blocks_written": len(offsets),
        "recovery_seconds": round(recovery_seconds, 4),
        "blocks_skipped": reader.blocks_skipped,
        "bytes_skipped": reader.bytes_skipped,
        "bytes_recovered": recovered,
    }


def run_slo(mib: int, codec_workers: int, flows: int = SLO_FLOWS) -> dict:
    """One instrumented daemon + admin endpoint under ``flows`` echo flows."""
    from repro.serve import AdminServer
    from repro.telemetry import instrumented

    data = generate(Compressibility.MODERATE, mib * 2**20, seed=13)
    with instrumented() as session:
        server = TransferServer(
            ServeConfig(
                port=0,
                max_flows=flows + 4,
                codec_workers=codec_workers,
                epoch_seconds=0.1,
            )
        ).start()
        admin = AdminServer(server, port=0, registry=session.registry).start()
        host, port = server.address
        base = "http://%s:%s" % admin.address

        depth_samples: list[int] = []
        stop = threading.Event()

        def poll_depth() -> None:
            while not stop.is_set():
                depth_samples.append(server.codec_stats()["queued"])
                time.sleep(0.005)

        results = [None] * flows
        errors: list[str] = []

        def run(i: int) -> None:
            try:
                client = ServeClient(host, port, timeout=120.0)
                results[i] = client.echo(data)
            except Exception as exc:  # noqa: BLE001 - recorded for the gate
                errors.append(f"flow {i}: {exc!r}")

        poller = threading.Thread(target=poll_depth, daemon=True)
        poller.start()
        threads = [threading.Thread(target=run, args=(i,)) for i in range(flows)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()

        # Probe the admin endpoint *while* the fleet streams: the SLO
        # includes "a scrape under full load returns promptly".
        import json as _json
        import urllib.error
        import urllib.request

        # Scrape once a flow is open: every open flow exports its
        # per-flow gauges (its app rate reads 0.0 before its first
        # window), so the series count shows the scrape ran under load.
        open_deadline = time.perf_counter() + SCRAPE_OPEN_DEADLINE_SECONDS
        while (
            server.status()["active_flows"] < 1
            and time.perf_counter() < open_deadline
        ):
            time.sleep(0.005)
        flows_open_at_scrape = server.status()["active_flows"]
        s0 = time.perf_counter()
        metrics_text = (
            urllib.request.urlopen(base + "/metrics", timeout=30).read().decode()
        )
        scrape_seconds = time.perf_counter() - s0
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=30) as resp:
                healthz_status = resp.status
                healthz_body = _json.load(resp)
        except urllib.error.HTTPError as exc:  # 503 still carries a body
            healthz_status = exc.code
            healthz_body = _json.load(exc)
        flow_series_at_scrape = metrics_text.count(
            "repro_serve_flow_app_rate_bytes_per_second{"
        )

        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        stop.set()
        poller.join(timeout=2.0)

        decode_p99 = session.registry.histogram("span.serve.decode.seconds").percentile(99)
        encode_p99 = session.registry.histogram("span.serve.encode.seconds").percentile(99)
        decode_count = session.registry.histogram("span.serve.decode.seconds").count
        admin.close()
        server.stop(drain=True, timeout=30.0)

    completed = sum(1 for r in results if r is not None and r.trailer.get("ok"))
    return {
        "flows": flows,
        "payload_mib_per_flow": mib,
        "completed": completed,
        "errors": errors,
        "server_failed_flows": server.flows_failed,
        "internal_errors": server.internal_errors,
        "wall_seconds": round(wall, 4),
        "aggregate_mb_per_s": round(len(data) * completed / wall / 1e6, 2),
        "p99_decode_seconds": round(decode_p99, 6),
        "p99_encode_seconds": round(encode_p99, 6),
        "decode_spans_observed": decode_count,
        "queue_depth_max": max(depth_samples) if depth_samples else 0,
        "queue_depth_samples": len(depth_samples),
        "metrics_scrape_seconds": round(scrape_seconds, 4),
        "metrics_bytes": len(metrics_text),
        "flows_open_at_scrape": flows_open_at_scrape,
        "flow_series_at_scrape": flow_series_at_scrape,
        "healthz_status_under_load": healthz_status,
        "healthz_ready_under_load": bool(healthz_body.get("ready")),
        "resync": measure_resync(max(1, mib // 2)),
        "thresholds": dict(SLO_THRESHOLDS),
    }


def check_slo_gate(slo: dict) -> list[str]:
    """Return failure messages for the operability axis."""
    failures = []
    t = slo["thresholds"]
    if slo["completed"] != slo["flows"] or slo["errors"]:
        failures.append(
            f"slo: only {slo['completed']} of {slo['flows']} flows completed "
            f"verified ({slo['errors'][:2]})"
        )
    if slo["server_failed_flows"]:
        failures.append(
            f"slo: server reported {slo['server_failed_flows']} failed flows"
        )
    if slo["healthz_status_under_load"] != 200 or not slo["healthz_ready_under_load"]:
        failures.append(
            f"slo: /healthz under load returned "
            f"{slo['healthz_status_under_load']} (ready="
            f"{slo['healthz_ready_under_load']}); a serving daemon must probe ready"
        )
    if slo["flows_open_at_scrape"] == 0:
        failures.append(
            f"slo: no flow was open within {SCRAPE_OPEN_DEADLINE_SECONDS:.0f}s "
            f"of the fleet's start, so the /metrics scrape ran without load"
        )
    if slo["flow_series_at_scrape"] == 0:
        failures.append(
            "slo: mid-load /metrics scrape carried no per-flow gauge series"
        )
    if slo["p99_decode_seconds"] > t["p99_decode_seconds_max"]:
        failures.append(
            f"slo: p99 decode block latency {slo['p99_decode_seconds']:.3f}s "
            f"exceeds {t['p99_decode_seconds_max']}s"
        )
    if slo["p99_encode_seconds"] > t["p99_encode_seconds_max"]:
        failures.append(
            f"slo: p99 encode block latency {slo['p99_encode_seconds']:.3f}s "
            f"exceeds {t['p99_encode_seconds_max']}s"
        )
    if slo["queue_depth_max"] > t["queue_depth_max"]:
        failures.append(
            f"slo: codec queue depth peaked at {slo['queue_depth_max']} "
            f"(ceiling {t['queue_depth_max']}) — backpressure is not bounding "
            f"the shared queue"
        )
    if slo["metrics_scrape_seconds"] > t["metrics_scrape_seconds_max"]:
        failures.append(
            f"slo: /metrics scrape took {slo['metrics_scrape_seconds']:.2f}s "
            f"under load (max {t['metrics_scrape_seconds_max']}s)"
        )
    resync = slo["resync"]
    if resync["recovery_seconds"] > t["resync_recovery_seconds_max"]:
        failures.append(
            f"slo: resync over a corrupted stream took "
            f"{resync['recovery_seconds']:.2f}s "
            f"(max {t['resync_recovery_seconds_max']}s)"
        )
    if resync["blocks_skipped"] > t["resync_blocks_skipped_max"]:
        failures.append(
            f"slo: resync lost {resync['blocks_skipped']} blocks to one "
            f"flipped byte (max {t['resync_blocks_skipped_max']})"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small per-flow payload, gate enforced",
    )
    parser.add_argument("--mib", type=int, default=None, help="payload MiB per flow")
    parser.add_argument(
        "--workers", type=int, default=0, help="shared codec workers (0 = auto)"
    )
    parser.add_argument("--out", default="BENCH_serve.json", help="JSON output path")
    parser.add_argument(
        "--control",
        action="store_true",
        help="run the contended-fleet policy axis instead of the scaling matrix",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="control axis: rounds per policy, best kept",
    )
    parser.add_argument(
        "--control-out",
        default="BENCH_control.json",
        help="control-axis JSON output path",
    )
    parser.add_argument(
        "--slo",
        action="store_true",
        help="run the operability axis (admin endpoint under load, codec "
        "latency/queue SLOs, resync recovery); merges an 'slo' key into --out",
    )
    args = parser.parse_args(argv)

    mib = args.mib or (2 if args.quick else 8)
    if args.slo:
        print(
            f"operability SLO run: {mib} MiB/flow, {SLO_FLOWS} echo flows, "
            f"admin endpoint attached, usable cores="
            f"{core_info()['usable_cores']}",
            flush=True,
        )
        slo = run_slo(mib, args.workers)
        print(
            f"  p99 decode {slo['p99_decode_seconds']*1e3:8.2f} ms  "
            f"p99 encode {slo['p99_encode_seconds']*1e3:8.2f} ms  "
            f"queue max {slo['queue_depth_max']:4d}  "
            f"scrape {slo['metrics_scrape_seconds']*1e3:6.1f} ms  "
            f"resync {slo['resync']['recovery_seconds']*1e3:6.1f} ms",
            flush=True,
        )
        try:
            with open(args.out) as fp:
                payload = json.load(fp)
        except (OSError, json.JSONDecodeError):
            payload = {"meta": {**core_info(), "python": platform.python_version()}}
        payload["slo"] = slo
        with open(args.out, "w") as fp:
            json.dump(payload, fp, indent=2)
        print(f"slo section merged into {args.out}")
        failures = check_slo_gate(slo)
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        if not failures:
            print("gate passed")
        return 1 if failures else 0

    if args.control:
        print(
            f"contended-fleet benchmark: {mib} MiB/flow, "
            f"{CONTROL_FLOWS} flows on a capped pool, "
            f"policies={[p or 'uncontrolled' for p in CONTROL_POLICIES]}, "
            f"usable cores={core_info()['usable_cores']}",
            flush=True,
        )
        payload = run_control_matrix(mib, args.workers, repeats=args.repeats)
        with open(args.control_out, "w") as fp:
            json.dump(payload, fp, indent=2)
        print(f"matrix written to {args.control_out}")
        failures = check_control_gate(payload)
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        if not failures:
            print("gate passed")
        return 1 if failures else 0

    print(
        f"serve benchmark: {mib} MiB/flow at {FLOW_COUNTS} concurrent flows, "
        f"usable cores={core_info()['usable_cores']}",
        flush=True,
    )
    payload = run_matrix(mib, args.workers, FLOW_COUNTS)
    with open(args.out, "w") as fp:
        json.dump(payload, fp, indent=2)
    print(f"matrix written to {args.out}")

    failures = check_gate(payload)
    for failure in failures:
        print(f"GATE FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("gate passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
