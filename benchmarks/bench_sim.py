"""Simulator-scale benchmark: engine throughput, allocator cost, fleets.

Standalone script (not a pytest-benchmark file) proving the thousand-flow
claims of the PR-10 simulator rewrite:

* **engine** — raw event throughput of the discrete-event core (timeout
  ping-pong, the dominant yield shape).
* **allocator** — the O(N log N) sorted-prefix water-fill of
  :mod:`repro.sim.link` against a frozen copy of the seed's iterative
  O(N²) fill, at 10/100/1000 flows.  Gate: >= 5x faster at 1000 flows.
* **link_churn** — end-to-end transmit/complete cycles through the live
  link (allocation + wake-timer management + completion delivery) at
  10/100/1000 concurrent flows.
* **fleet** — a 1000-flow open-loop fleet run
  (:class:`~repro.sim.fleet.FleetArrivalSpec`, softmax-modulated
  arrivals) under every allocation policy, on the fleet shape of
  perfbench's ``sim-fleet`` workload.  Gates: each arm completes under
  a hard wall-clock ceiling, so thousand-flow scenarios stay in CI
  budget; every arm is in the regime that exercises Algorithm 1 (each
  flow lives several epochs and changes level); and the greedy arm
  holds LOW flows at NO.

Results go to ``BENCH_sim.json``; ``--quick`` is the CI mode (smaller
engine/churn passes, same 10/100/1000 axis, gates enforced).

Usage::

    PYTHONPATH=src python benchmarks/bench_sim.py [--quick]
        [--repeats 5] [--out BENCH_sim.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import sys
import time
from typing import Dict, List, Optional

from bench_pipeline import core_info

from repro.data.corpus import Compressibility
from repro.sim import Environment, SharedLink, run_fleet_scenario

# The fleet arm runs the fleet of perfbench's ``sim-fleet`` workload
# (flows long enough that every one runs Algorithm 1 for several epochs,
# in mixed classes the fleet controller can tell apart) and gates it on
# that workload's regime floors, imported so the two cannot drift apart.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from simfleet import (  # noqa: E402
    ARRIVALS as FLEET_ARRIVALS,
    CORES as FLEET_CORES,
    MIN_EPOCHS_PER_FLOW,
    MIN_LOW_AT_NO_SHARE,
    SPECS as FLEET_SPECS,
)

FLOW_COUNTS = (10, 100, 1000)
GREEDY = "greedy-throughput"
POLICIES = (None, "fair-share", GREEDY, "hill-climb")

#: Hard CI budget per 1000-flow fleet arm.  Measured 4-6 s on a 2-vCPU
#: VM; the ceiling leaves headroom for slow shared runners while still
#: catching a return to the seed's quadratic link work.
FLEET_WALL_CEILING_S = 30.0
ALLOCATOR_SPEEDUP_FLOOR = 5.0
ALLOCATOR_GATE_FLOWS = 1000


# ---------------------------------------------------------------------------
# Frozen seed allocator (the pre-PR-10 algorithm, kept for old-vs-new).
# ---------------------------------------------------------------------------


def seed_water_fill(active, capacity: float) -> Dict[int, float]:
    """Seed's restart-from-scratch weighted max-min fill (list.remove)."""
    alloc: Dict[int, float] = {}
    todo = list(active)
    cap = capacity
    while todo:
        total_weight = sum(f.weight for f in todo)
        capped = []
        for f in todo:
            share = cap * f.weight / total_weight
            if f.demand is not None and f.demand < share:
                capped.append(f)
        if not capped:
            for f in todo:
                alloc[id(f)] = cap * f.weight / total_weight
            break
        for f in capped:
            alloc[id(f)] = f.demand
            cap -= f.demand
            todo.remove(f)
        cap = max(cap, 0.0)
    return alloc


class _F:
    __slots__ = ("weight", "demand")

    def __init__(self, weight: float, demand: Optional[float]) -> None:
        self.weight = weight
        self.demand = demand


def make_fleet(n: int, rng: random.Random, capacity: float) -> List[_F]:
    """A fleet in the regime the fleet simulator actually produces.

    Most flows are CPU-bound (compression-limited), demanding *less*
    than their fair share of the link; a few are link-bound (no cap).
    Re-pricing such a fleet caps flows in cascading rounds — each round
    raises the fair share, which caps more flows — which is exactly
    where the seed's per-flow ``list.remove`` goes quadratic.
    """
    flows = []
    scale = capacity / n  # keep the per-flow demand/share ratio n-invariant
    for _ in range(n):
        weight = rng.choice((0.5, 1.0, 1.0, 1.5, 2.0))
        demand = None if rng.random() < 0.1 else rng.uniform(0.1, 2.0) * scale
        flows.append(_F(weight, demand))
    return flows


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def bench_engine(n_events: int) -> dict:
    """Timeout ping-pong: the engine's dominant event shape."""
    env = Environment()

    def ticker():
        for _ in range(n_events):
            yield env.timeout(1.0)

    env.process(ticker())
    t0 = time.perf_counter()
    env.run()
    seconds = time.perf_counter() - t0
    return {
        "events": env.events_processed,
        "seconds": seconds,
        "events_per_sec": env.events_processed / seconds if seconds else 0.0,
    }


def bench_allocator(repeats: int) -> List[dict]:
    """Seed vs new water-fill over the 10/100/1000-flow axis."""
    rows = []
    for n in FLOW_COUNTS:
        rng = random.Random(1000 + n)
        capacity = 100.0
        fleets = [make_fleet(n, rng, capacity) for _ in range(repeats)]
        env = Environment()
        link = SharedLink(env, capacity=capacity)

        def best_of_each(fills, passes=7):
            # Min over several passes: on a shared box a single pass can
            # absorb scheduler noise large enough to flip the gate.  The
            # fills alternate inside one loop, so a slow spell of the
            # host hits both instead of whichever ran during it.  GC is
            # paused during timing — earlier sections leave tens of
            # thousands of live objects, and collection pauses land
            # disproportionately on the faster allocator.
            best = [float("inf")] * len(fills)
            gc.collect()
            gc.disable()
            try:
                for _ in range(passes):
                    for i, fn in enumerate(fills):
                        t0 = time.perf_counter()
                        for fleet in fleets:
                            fn(fleet)
                        best[i] = min(best[i], time.perf_counter() - t0)
            finally:
                gc.enable()
            return best

        seed_s, new_s = best_of_each(
            (lambda fleet: seed_water_fill(fleet, capacity), link._water_fill)
        )

        # Sanity: same allocation (up to float noise) before comparing speed.
        seed_alloc = seed_water_fill(fleets[0], capacity)
        new_alloc = link._water_fill(fleets[0])
        for key, rate in seed_alloc.items():
            if abs(new_alloc[key] - rate) > 1e-9 * max(1.0, abs(rate)):
                raise AssertionError(f"allocator mismatch at {n} flows")

        rows.append(
            {
                "flows": n,
                "repeats": repeats,
                "seed_us_per_fill": 1e6 * seed_s / repeats,
                "new_us_per_fill": 1e6 * new_s / repeats,
                "speedup": seed_s / new_s if new_s else float("inf"),
            }
        )
    return rows


def bench_link_churn(cycles: int) -> List[dict]:
    """End-to-end transmit/complete cycles with N concurrent flows."""
    rows = []
    for n in FLOW_COUNTS:
        rng = random.Random(2000 + n)
        env = Environment()
        link = SharedLink(env, capacity=1000.0)
        flows = [
            link.open_flow(
                f"f{i}",
                weight=rng.choice((0.5, 1.0, 1.5)),
                demand=rng.uniform(0.5, 10.0),
            )
            for i in range(n)
        ]
        transfers = 0

        def sender(flow):
            nonlocal transfers
            for _ in range(cycles):
                yield link.transmit(flow, rng.uniform(10.0, 100.0))
                transfers += 1

        for flow in flows:
            env.process(sender(flow))
        t0 = time.perf_counter()
        env.run()
        seconds = time.perf_counter() - t0
        rows.append(
            {
                "flows": n,
                "transfers": transfers,
                "seconds": seconds,
                "transfers_per_sec": transfers / seconds if seconds else 0.0,
                "events_processed": env.events_processed,
                "pending_after_drain": env.pending_events,
            }
        )
    return rows


def bench_fleet() -> List[dict]:
    """Open-loop 1000-flow fleet under every allocation policy."""
    rows = []
    for policy in POLICIES:
        res = run_fleet_scenario(
            FLEET_SPECS,
            arrivals=FLEET_ARRIVALS,
            policy=policy,
            seed=42,
            cores=FLEET_CORES,
        )
        low_epochs = low_at_no = 0
        for f in res.flows:
            if f.compressibility == Compressibility.LOW.name:
                low_epochs += sum(f.level_epochs.values())
                low_at_no += f.level_epochs.get(0, 0)
        row = {
            "policy": res.policy or "uncontrolled",
            "total_flows": res.flows_spawned,
            "peak_live": res.peak_live,
            "makespan_sim_s": res.makespan,
            "wall_seconds": res.wall_seconds,
            "events_processed": res.events_processed,
            "events_per_sec": res.events_per_second,
            "aggregate_goodput": res.aggregate_goodput,
            "epochs_per_flow_min": min(sum(f.level_epochs.values()) for f in res.flows),
            "level_changed_share": sum(1 for f in res.flows if len(f.level_epochs) > 1)
            / len(res.flows),
            "low_at_no_share": low_at_no / low_epochs if low_epochs else 0.0,
        }
        rows.append(row)
        print(
            f"  fleet/{row['policy']}: "
            f"{res.flows_spawned} flows (peak {res.peak_live} live) in "
            f"{res.wall_seconds:.2f}s wall, {res.events_processed} events, "
            f">= {row['epochs_per_flow_min']} epochs/flow, "
            f"LOW at NO {row['low_at_no_share']:.3f}",
            flush=True,
        )
    return rows


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def check_gate(payload: dict) -> List[str]:
    failures = []
    gate_row = next(
        (r for r in payload["allocator"] if r["flows"] == ALLOCATOR_GATE_FLOWS), None
    )
    if gate_row is None:
        failures.append(f"no allocator row at {ALLOCATOR_GATE_FLOWS} flows")
    elif gate_row["speedup"] < ALLOCATOR_SPEEDUP_FLOOR:
        failures.append(
            f"allocator at {ALLOCATOR_GATE_FLOWS} flows only "
            f"{gate_row['speedup']:.1f}x faster than the seed fill "
            f"(floor {ALLOCATOR_SPEEDUP_FLOOR:.0f}x)"
        )
    for row in payload["fleet"]:
        if row["wall_seconds"] > FLEET_WALL_CEILING_S:
            failures.append(
                f"fleet/{row['policy']}: {row['total_flows']}-flow run took "
                f"{row['wall_seconds']:.1f}s wall "
                f"(ceiling {FLEET_WALL_CEILING_S:.0f}s)"
            )
        if row["epochs_per_flow_min"] < MIN_EPOCHS_PER_FLOW:
            failures.append(
                f"fleet/{row['policy']}: a flow lived only "
                f"{row['epochs_per_flow_min']} epochs (floor {MIN_EPOCHS_PER_FLOW})"
            )
        if row["level_changed_share"] < 1.0:
            failures.append(
                f"fleet/{row['policy']}: only {row['level_changed_share']:.3f} "
                "of flows changed level"
            )
    greedy = next((r for r in payload["fleet"] if r["policy"] == GREEDY), None)
    if greedy is None:
        failures.append(f"no fleet/{GREEDY} row")
    elif greedy["low_at_no_share"] < MIN_LOW_AT_NO_SHARE:
        failures.append(
            f"fleet/{GREEDY}: LOW flows at NO only "
            f"{greedy['low_at_no_share']:.3f} of epochs "
            f"(floor {MIN_LOW_AT_NO_SHARE})"
        )
    for row in payload["link_churn"]:
        if row["pending_after_drain"] != 0:
            failures.append(
                f"link_churn at {row['flows']} flows left "
                f"{row['pending_after_drain']} pending events (heap leak)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller engine/churn passes, gates enforced",
    )
    parser.add_argument("--repeats", type=int, default=None, help="fills per cell")
    parser.add_argument("--out", default="BENCH_sim.json", help="JSON output path")
    args = parser.parse_args(argv)

    if args.quick:
        n_events = 50_000
        repeats = args.repeats or 5
        churn_cycles = 20
    else:
        n_events = 200_000
        repeats = args.repeats or 20
        churn_cycles = 50
    print(
        f"sim benchmark: engine {n_events} events, allocator repeats={repeats}, "
        f"fleet {FLEET_ARRIVALS.total_flows} flows",
        flush=True,
    )
    payload = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": args.quick,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **core_info(),
        },
        "engine": bench_engine(n_events),
        "allocator": bench_allocator(repeats),
        "link_churn": bench_link_churn(churn_cycles),
        "fleet": bench_fleet(),
        "gates": {
            "allocator_speedup_floor": ALLOCATOR_SPEEDUP_FLOOR,
            "allocator_gate_flows": ALLOCATOR_GATE_FLOWS,
            "fleet_wall_ceiling_s": FLEET_WALL_CEILING_S,
            "fleet_min_epochs_per_flow": MIN_EPOCHS_PER_FLOW,
            "fleet_min_low_at_no_share": MIN_LOW_AT_NO_SHARE,
        },
    }

    eng = payload["engine"]
    print(f"  engine: {eng['events_per_sec']:,.0f} events/s")
    for row in payload["allocator"]:
        print(
            f"  allocator/{row['flows']} flows: seed "
            f"{row['seed_us_per_fill']:.1f}us vs new "
            f"{row['new_us_per_fill']:.1f}us per fill "
            f"({row['speedup']:.1f}x)"
        )
    for row in payload["link_churn"]:
        print(
            f"  link_churn/{row['flows']} flows: "
            f"{row['transfers_per_sec']:,.0f} transfers/s"
        )

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
