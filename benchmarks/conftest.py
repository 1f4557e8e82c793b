"""Shared benchmark configuration.

Every paper artifact, ablation and extension is one case of
``bench_experiments.py``.  The benchmark body runs the corresponding
experiment once (``rounds=1`` — these are
macro-benchmarks of a deterministic simulation, not micro-timings),
prints the rendered artifact so the run doubles as the reproduction
record, and asserts the experiment's shape checks.

``REPRO_BENCH_SCALE`` (default 0.1) scales data volumes relative to the
paper's 50 GB; set it to 1.0 to regenerate the tables and figures at
full scale.
"""

from __future__ import annotations

import os

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))


@pytest.fixture(scope="session")
def scale() -> float:
    return SCALE


def run_experiment_benchmark(benchmark, run_fn, **kwargs):
    """Run one experiment under pytest-benchmark and validate shapes."""
    result = benchmark.pedantic(
        lambda: run_fn(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(result.render())
    assert result.ok, f"{result.experiment_id} failed shapes: {result.failures}"
    return result
