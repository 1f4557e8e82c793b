"""Experiment CLI: ``python -m repro.experiments [ids...]``.

Runs the requested experiments (default: all of the paper's tables and
figures) at a chosen scale, prints each rendered artifact and its shape
checks, and exits non-zero if any expected shape failed.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Callable, Dict

from . import ablations, extensions, fig1_cpu_accuracy, fig2_net_throughput
from . import fig3_file_throughput, fig4_adaptivity_high, fig5_adaptivity_low
from . import fig6_changing_compressibility, table2_completion_times
from .common import ExperimentResult

#: id -> callable(scale, seed) -> ExperimentResult
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_cpu_accuracy.run,
    "fig2": fig2_net_throughput.run,
    "fig3": fig3_file_throughput.run,
    "table2": table2_completion_times.run,
    "fig4": fig4_adaptivity_high.run,
    "fig5": fig5_adaptivity_low.run,
    "fig6": fig6_changing_compressibility.run,
    "ablate-alpha": ablations.run_alpha,
    "ablate-backoff": ablations.run_backoff,
    "ablate-t": ablations.run_epoch_length,
    "ablate-metrics": ablations.run_metrics,
    "ext-fileio": extensions.run_fileio,
    "ext-memory": extensions.run_memory,
    "ext-fairness": extensions.run_fairness,
    "ext-faults": extensions.run_faults,
    "ext-control": extensions.run_control,
}

PAPER_SET = ("fig1", "fig2", "fig3", "table2", "fig4", "fig5", "fig6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of Hovestadt et al. (IPDPS 2011)",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}); 'paper' = all "
        "paper artifacts; 'all' = every id; default: paper",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="data-volume scale vs the paper's 50 GB (default 0.1; 1.0 = full)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-grade quick run: scale 0.02 unless --scale is given explicitly",
    )
    parser.add_argument("--seed", type=int, default=None, help="override base seed")
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override repeat count for experiments that average over seeds",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write every experiment's raw data to PATH as JSON",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0

    requested = args.experiments or ["paper"]
    ids = []
    for item in requested:
        if item == "paper":
            ids.extend(PAPER_SET)
        elif item == "all":
            ids.extend(EXPERIMENTS)
        elif item in EXPERIMENTS:
            ids.append(item)
        else:
            print(f"unknown experiment {item!r}; use --list", file=sys.stderr)
            return 2

    if args.scale is None:
        args.scale = 0.02 if args.quick else 0.1

    any_failed = False
    json_payload = {}
    for exp_id in ids:
        kwargs = {"scale": args.scale}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.repeats is not None:
            if "repeats" in inspect.signature(EXPERIMENTS[exp_id]).parameters:
                kwargs["repeats"] = args.repeats
        t0 = time.perf_counter()
        result = EXPERIMENTS[exp_id](**kwargs)
        elapsed = time.perf_counter() - t0
        print(result.render())
        print(f"({exp_id} finished in {elapsed:.1f}s wall)\n")
        if not result.ok:
            any_failed = True
        json_payload[exp_id] = {
            "title": result.title,
            "ok": result.ok,
            "failures": result.failures,
            "wall_seconds": elapsed,
            "data": result.data,
        }
    if args.json:
        import json

        with open(args.json, "w") as fp:
            json.dump(json_payload, fp, indent=2, default=str)
        print(f"raw data written to {args.json}")
    return 1 if any_failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
