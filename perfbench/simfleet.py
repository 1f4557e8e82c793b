"""The ``sim-fleet`` workload: one 1000-flow fleet per fresh process.

Usage (from the repository root; normally started by ``run.py``)::

    python3 perfbench/simfleet.py --seed N --trace 0|1

Runs :func:`repro.sim.fleet.run_fleet_scenario` once under
``policy="greedy-throughput"`` with open-loop softmax arrivals and
prints one JSON line: wall and CPU seconds of the call, the moment
``Environment.run`` was entered (``time.monotonic``, comparable with
the parent's spawn time), the process's peak RSS, the fleet's outcome
and, with ``--trace 1``, the span ledger.  A fresh process per fleet
keeps ``ru_maxrss`` and the allocator state per run.

:func:`measure` is the parent side: it starts fleets one after another
while the run's seconds last (the last fleet may end past them), and
checks that every fleet of one seed made bit-identical decisions.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.data.corpus import Compressibility  # noqa: E402
from repro.sim.calibration import CodecSimModel  # noqa: E402
from repro.sim.engine import Environment  # noqa: E402
from repro.sim.fleet import FleetArrivalSpec, FleetFlowSpec, run_fleet_scenario  # noqa: E402

POLICY = "greedy-throughput"
ARRIVALS = FleetArrivalSpec(total_flows=1000, interval=2.0, mean=12, swing=6)
CORES = 4
SPECS = [
    FleetFlowSpec("high", Compressibility.HIGH, 1_200_000_000),
    FleetFlowSpec("moderate", Compressibility.MODERATE, 1_000_000_000),
    FleetFlowSpec("low", Compressibility.LOW, 800_000_000),
]

#: Regime floors: below these the fleet no longer exercises Algorithm 1
#: and the fleet controller, and its arms could tie by construction.
MIN_EPOCHS_PER_FLOW = 5
MIN_LOW_AT_NO_SHARE = 0.9


def run_one(seed: int, traced: bool) -> dict:
    """One fleet in this process; the JSON-ready outcome."""
    entered: List[float] = []
    ledger = None
    if traced:
        import ledger as ledger_mod

        ledger = ledger_mod.Ledger()
        ledger_mod.install_sim(ledger)
    run = Environment.run

    def stamped_run(self, until=None):
        entered.append(time.monotonic())
        return run(self, until)

    Environment.run = stamped_run

    cpu0, t0 = time.process_time(), time.perf_counter()
    fleet = run_fleet_scenario(
        SPECS, policy=POLICY, arrivals=ARRIVALS, cores=CORES, seed=seed
    )
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    model = CodecSimModel()
    durations = sorted((f.completion_time - f.started_at) * 1000.0 for f in fleet.flows)
    histogram: dict = {}
    wire = epochs = 0.0
    low_epochs = low_no = 0
    for f in fleet.flows:
        cls = Compressibility[f.compressibility]
        for level, n in f.level_epochs.items():
            histogram[level] = histogram.get(level, 0) + n
            wire += n * model.point(level, cls).wire_ratio
            epochs += n
            if cls is Compressibility.LOW:
                low_epochs += n
                low_no += n if level == 0 else 0
    return {
        "seed": seed,
        "wall_s": wall,
        "cpu_s": cpu,
        "run_entered": entered[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "flows": len(fleet.flows),
        "app_mb": fleet.total_app_bytes / 1e6,
        "goodput_mb_s": fleet.aggregate_goodput / 1e6,
        "flow_p50_ms": statistics.median(durations),
        "flow_p90_ms": statistics.quantiles(durations, n=10, method="inclusive")[8],
        "wire_ratio": wire / epochs,
        "decisions": {
            "goodput": fleet.aggregate_goodput.hex(),
            "epochs_by_level": {str(k): v for k, v in sorted(histogram.items())},
            "rebalances": fleet.rebalances,
            "events": fleet.events_processed,
        },
        "epochs_per_flow_min": min(sum(f.level_epochs.values()) for f in fleet.flows),
        "level_changed_share": sum(1 for f in fleet.flows if len(f.level_epochs) > 1)
        / len(fleet.flows),
        "low_at_no_share": low_no / low_epochs,
        "ledger": ledger.totals() if ledger is not None else None,
    }


def measure(seed: int, seconds: float, traced: bool) -> List[dict]:
    """Fresh-process fleets of one seed, started while ``seconds`` last.

    A fleet that would end past the deadline still runs: on a slow host
    stopping early would leave the median with two or three samples.
    """
    runs: List[dict] = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        spawned = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--seed", str(seed), "--trace", str(int(traced))],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=150,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["run_entered"] - spawned
        runs.append(result)
    return runs


def check(runs: List[dict]) -> List[str]:
    """Regime and determinism checks over one seed's fleets."""
    problems = []
    for r in runs:
        if r["flows"] != ARRIVALS.total_flows:
            problems.append(f"fleet ran {r['flows']} flows")
        if r["epochs_per_flow_min"] < MIN_EPOCHS_PER_FLOW:
            problems.append(f"a flow lived only {r['epochs_per_flow_min']} epochs")
        if r["level_changed_share"] < 1.0:
            problems.append(f"only {r['level_changed_share']:.3f} of flows changed level")
        if r["low_at_no_share"] < MIN_LOW_AT_NO_SHARE:
            problems.append(f"LOW flows at NO only {r['low_at_no_share']:.3f} of epochs")
        if r["decisions"] != runs[0]["decisions"]:
            problems.append("fleets of one seed made different decisions")
    return problems


def main(argv) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run_one(args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
