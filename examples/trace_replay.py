#!/usr/bin/env python3
"""Record a transfer's observation trace, replay it, analyze it.

Operational tooling around the decision schemes:

1. run one adaptive transfer in the simulator and *record* the epoch
   observations the scheme saw (serialized as JSON-lines);
2. *replay* the trace through other decision models offline — "what
   would scheme X have chosen at each step?" — without rerunning the
   workload;
3. summarize the recorded run: time-weighted level occupancy and
   duration-weighted application-rate statistics.

Run:  python examples/trace_replay.py
"""

import io

from repro.data import Compressibility
from repro.schemes import (
    MemoryRateScheme,
    QueueBasedScheme,
    RateBasedScheme,
    StaticScheme,
)
from repro.schemes.replay import (
    dump_trace,
    load_trace,
    observations_from_result,
    replay_many,
)
from repro.sim import (
    ScenarioConfig,
    level_occupancy,
    make_dynamic_factory,
    rate_statistics,
    run_transfer_scenario,
)


def main() -> None:
    # 1. Record.
    config = ScenarioConfig(
        scheme_factory=make_dynamic_factory(),
        compressibility=Compressibility.HIGH,
        total_bytes=5 * 10**9,
        n_background=2,
        seed=12,
    )
    result = run_transfer_scenario(config)
    observations = observations_from_result(result)

    buf = io.StringIO()
    n = dump_trace(observations, buf)
    print(f"recorded {n} epochs ({len(buf.getvalue())} bytes of JSONL)\n")

    # 2. Replay through the zoo.
    buf.seek(0)
    loaded = list(load_trace(buf))
    table = replay_many(
        loaded,
        [
            RateBasedScheme(4),
            MemoryRateScheme(4),
            QueueBasedScheme(4),
            StaticScheme(4, 1, name="LIGHT"),
        ],
    )
    print("replayed decisions (first 25 epochs):")
    for name, levels in table.items():
        print(f"  {name:12s} {levels[:25]}")

    # 3. Analyze the original run.
    print("\ntime-weighted level occupancy of the recorded run:")
    for level, share in sorted(level_occupancy(result).items()):
        print(f"  level {level}: {100 * share:5.1f}%")
    stats = rate_statistics(result)
    print(
        f"\napplication rate: mean {stats['mean'] / 1e6:.1f} MB/s, "
        f"p50 {stats['p50'] / 1e6:.1f}, p95 {stats['p95'] / 1e6:.1f}, "
        f"std {stats['std'] / 1e6:.1f}"
    )


if __name__ == "__main__":
    main()
