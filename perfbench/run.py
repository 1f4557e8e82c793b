"""The repository benchmark: one command, three workloads, two modes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload upload-mix|echo-frames|sim-fleet \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` measures the same workload and seed twice, untraced then
traced, each for half the seconds, and reports the per-layer ledger
plus ``trace.overhead.<metric>`` (traced / untraced - 1) for every
end-to-end metric.  Metric names and units come from
``BENCHMARK.json`` at the repository root; see ``perfbench/README.md``
for what each one means on each workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every metric
is also printed by name with its unit, and the run's provenance on a
``provenance`` line.  Any failed CRC, failed or rejected flow, daemon
internal error, regime check or load-shape check prints the problems
on standard error, reports ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The corpus generators seed from hash(); pin it so a seed always gives
# the same inputs.  Children inherit the environment.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.levels import default_level_table  # noqa: E402

import serveload  # noqa: E402
import simfleet  # noqa: E402

WORKLOADS = ("upload-mix", "echo-frames", "sim-fleet")

#: Never used while tuning or landing a change; a claimed gain must
#: also hold on this seed (choosing-metrics, section 6).
HELD_OUT_SEED = 104729

#: Accepted range of trace.coverage: layer self times plus the named
#: residual over the process time they should add up to.
COVERAGE_RANGE = {"serve": (0.80, 1.20), "sim": (0.95, 1.0 + 1e-9)}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


# -- per-layer ledger arithmetic ----------------------------------------


def _sum(ledgers, prefix: str, field: int) -> float:
    """One field summed over every record whose name starts with ``prefix``
    (``codecs.frame:encode_block`` also takes ``encode_block_parts``)."""
    return sum(
        rec[field]
        for ledger in ledgers
        if ledger
        for name, rec in ledger.items()
        if name.startswith(prefix)
    )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def serve_layers(w: serveload.Window) -> dict:
    from ledger import BYTES, COUNT, SELF, TOTAL

    d, c = w.report["ledger"], w.client_ledger
    both = (d, c)
    levels = default_level_table()

    def codec_rate(level: str) -> float:
        name = "codecs.compress:" + type(levels.codec(levels.index_of(level))).__name__
        return _ratio(_sum(both, name, BYTES) / 1e6, _sum(both, name, SELF))

    pool = w.report["buffer_pool"]
    busy = _sum((d,), "", SELF)
    return {
        "codecs.compress_s": _sum(both, "codecs.compress:", SELF),
        "codecs.decompress_s": _sum(both, "codecs.decompress:", SELF),
        "codecs.compress_mb_s.LIGHT": codec_rate("LIGHT"),
        "codecs.compress_mb_s.MEDIUM": codec_rate("MEDIUM"),
        "codecs.stored_share": _ratio(
            _sum(both, "codecs.stored", COUNT), _sum(both, "codecs.attempts", COUNT)
        ),
        "codecs.frames": _sum(both, "codecs.frame:encode_block", COUNT)
        + _sum(both, "codecs.frame:decode_payload", COUNT),
        "codecs.frame_s": _sum(both, "codecs.frame:", SELF),
        "core.stream.write_s": _sum((c,), "core.stream.write", SELF),
        "core.pipeline.jobs": _sum((d,), "core.pipeline.job", COUNT),
        "core.pipeline.queue_wait_s": _sum((d,), "core.pipeline.queue_wait", TOTAL),
        "core.pipeline.job_s": _sum((d,), "core.pipeline.job", SELF),
        "core.buffers.miss_share": _ratio(pool["misses"], pool["hits"] + pool["misses"]),
        "io.sockets.sends": _sum((c,), "io.sockets.writev", COUNT),
        "io.sockets.send_s": _sum((c,), "io.sockets.writev", SELF),
        "io.sockets.bytes_per_send": _ratio(
            _sum((c,), "io.sockets.writev", BYTES), _sum((c,), "io.sockets.writev", COUNT)
        ),
        "serve.reads": _sum((d,), "serve.read", COUNT),
        "serve.read_s": _sum((d,), "serve.read", SELF),
        "serve.bytes_per_read": _ratio(
            _sum((d,), "serve.read", BYTES), _sum((d,), "serve.read", COUNT)
        ),
        "serve.writes": _sum((d,), "serve.write", COUNT),
        "serve.write_s": _sum((d,), "serve.write", SELF),
        "serve.pumps": _sum((d,), "serve.pump", COUNT),
        "serve.pump_s": _sum((d,), "serve.pump", SELF),
        "serve.loop_other_s": _sum((d,), "serve.loop", SELF),
        "serve.idle_s": _sum((d,), "serve.idle", TOTAL),
        "serve.cpu_s": w.daemon_cpu_s,
        "client.cpu_s": w.client_cpu_s,
        "serve.flows_failed": w.report["flows_failed"],
        "serve.internal_errors": w.report["internal_errors"],
        "trace.coverage": _ratio(busy, w.report["loop_cpu_s"]),
        # Not printed: the echo-frames regime check reads it.
        "_daemon_codec_share": _ratio(
            _sum((d,), "codecs.compress:", SELF) + _sum((d,), "codecs.decompress:", SELF),
            busy,
        ),
    }


def sim_layers(run: dict) -> dict:
    from ledger import COUNT, SELF, TOTAL

    led = (run["ledger"],)
    events = run["decisions"]["events"]
    engine_self = _sum(led, "sim.engine.run", SELF)
    return {
        "schemes.decisions": _sum(led, "schemes.on_epoch", COUNT),
        "schemes.level_changes": _sum(led, "schemes.level_changes", COUNT),
        "schemes.on_epoch_s": _sum(led, "schemes.on_epoch", SELF),
        "control.ticks": _sum(led, "control.tick", COUNT),
        "control.tick_s": _sum(led, "control.tick", SELF),
        "control.observe_s": _sum(led, "control.observe", SELF),
        "control.rebalances": run["decisions"]["rebalances"],
        "sim.engine.events": events,
        "sim.engine.self_s": engine_self,
        "sim.engine.us_per_event": _ratio(engine_self * 1e6, events),
        "sim.link.calls": _sum(led, "sim.link:", COUNT),
        "sim.link.reprice_s": _sum(led, "sim.link:", SELF),
        "sim.epochs_per_flow_min": run["epochs_per_flow_min"],
        "sim.level_changed_share": run["level_changed_share"],
        "sim.low_at_no_share": run["low_at_no_share"],
        "trace.coverage": _ratio(_sum(led, "sim.engine.run", TOTAL), run["wall_s"]),
    }


# -- workloads ------------------------------------------------------------


def sim_end_to_end(runs) -> dict:
    med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    return {
        "goodput_mb_s": med("goodput_mb_s"),
        "mb_per_cpu_s": statistics.median(r["app_mb"] / r["cpu_s"] for r in runs),
        "flow_p50_ms": med("flow_p50_ms"),
        "flow_p90_ms": med("flow_p90_ms"),
        "wire_ratio": med("wire_ratio"),
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: dict
    layers: dict
    attempted: int
    failed: int
    problems: list
    #: Run-specific provenance: transport, daemon config, sample counts.
    provenance: dict


def run_sim(seed: int, seconds: float, traced: bool) -> Outcome:
    base = simfleet.measure(seed, seconds / (2 if traced else 1), traced=False)
    traced_runs = simfleet.measure(seed, seconds / 2, traced=True) if traced else []
    runs = base + traced_runs
    # Also proves tracing leaves every decision bit-identical.
    problems = simfleet.check(runs)
    layers = {}
    if traced:
        per_run = [sim_layers(r) for r in traced_runs]
        layers = {key: statistics.median(p[key] for p in per_run) for key in per_run[0]}
        layers.update(_overhead(sim_end_to_end(base), sim_end_to_end(traced_runs)))
        lo, hi = COVERAGE_RANGE["sim"]
        if not lo <= layers["trace.coverage"] <= hi:
            problems.append(f"sim trace.coverage {layers['trace.coverage']:.4f} outside [{lo}, {hi}]")
    provenance = {
        "transport": "none (simulated link)",
        "samples": {"fleets": len(base), "flows_per_fleet": base[0]["flows"]},
        # Deterministic per seed: any change in it is a change in decisions.
        "decisions": base[0]["decisions"],
    }
    attempted = sum(r["flows"] for r in runs)
    return Outcome(sim_end_to_end(base), layers, attempted, 0, problems, provenance)


def run_serve(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    inputs = serveload.make_inputs(workload, seed)
    windows = [serveload.measure(inputs, seconds / (2 if traced else 1), traced=False)]
    if traced:
        windows.append(serveload.measure(inputs, seconds / 2, traced=True))
    # Traced runs print only the ledger and trace.overhead, no p90 to back.
    min_flows = 1 if traced else 100
    problems = [p for w in windows for p in serveload.check(inputs, w, min_flows)]
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.attempted - len(w.flows) for w in windows)
    base = windows[0]
    provenance = {
        "transport": f"TCP over loopback {base.peer}",
        "daemon": {k: base.report[k] for k in ("backend", "workers", "shards")},
        "samples": {"flows": len(base.flows)},
    }
    if problems or failed:
        return Outcome({}, {}, attempted, failed, problems, provenance)
    e2e = serveload.end_to_end(inputs, base)
    layers = {}
    if traced:
        layers = serve_layers(windows[1])
        share = layers.pop("_daemon_codec_share")
        if workload == "echo-frames" and share > serveload.ECHO_CODEC_SHARE_MAX:
            problems.append(f"codec work is {share:.3f} of daemon busy time")
        lo, hi = COVERAGE_RANGE["serve"]
        if not lo <= layers["trace.coverage"] <= hi:
            problems.append(
                f"daemon trace.coverage {layers['trace.coverage']:.4f} outside [{lo}, {hi}]"
            )
        layers.update(_overhead(e2e, serveload.end_to_end(inputs, windows[1])))
    return Outcome(e2e, layers, attempted, failed, problems, provenance)


def _overhead(untraced: dict, traced: dict) -> dict:
    return {f"trace.overhead.{k}": traced[k] / untraced[k] - 1.0 for k in untraced}


# -- entry point ------------------------------------------------------------


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    traced = bool(args.trace)

    if args.workload == "sim-fleet":
        out = run_sim(args.seed, args.seconds, traced)
    else:
        out = run_serve(args.workload, args.seed, args.seconds, traced)
    problems = out.problems

    declared = spec["per_layer"] if traced else spec["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in declared}
    measured = out.layers if traced else out.end_to_end
    # Layers a workload never enters read 0 (e.g. codecs under sim-fleet).
    values = {name: measured.get(name, 0.0) for name in wanted} if not problems else {}
    if not problems and set(measured) - set(wanted):
        problems.append(f"undeclared metrics {sorted(set(measured) - set(wanted))}")
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite: {value}")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": serveload.nproc(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **out.provenance,
    }
    print("provenance " + json.dumps(provenance))
    for name, value in values.items():
        print(f"{name:32s} {value:16.6f} {wanted[name]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": v, "unit": wanted[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
