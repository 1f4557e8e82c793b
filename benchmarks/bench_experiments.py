"""Regenerate every paper artifact, ablation and extension experiment.

One parametrized macro-benchmark per experiment (see
``conftest.run_experiment_benchmark``): each runs its experiment once,
prints the rendered artifact and asserts its shape checks.  Pick one
by id, e.g.::

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -k table2 -s
"""

import pytest

from repro.experiments import (
    ablations,
    extensions,
    fig1_cpu_accuracy,
    fig2_net_throughput,
    fig3_file_throughput,
    fig4_adaptivity_high,
    fig5_adaptivity_low,
    fig6_changing_compressibility,
    table2_completion_times,
)

from conftest import run_experiment_benchmark

#: (id, runner, repeats) — ``None`` keeps the runner's own default.
EXPERIMENTS = [
    # Figure 1: displayed vs host CPU utilization during I/O.
    ("fig1", fig1_cpu_accuracy.run, None),
    # Figure 2: network throughput distributions per platform.
    ("fig2", fig2_net_throughput.run, None),
    # Figure 3: file-write throughput distributions (XEN cache).
    ("fig3", fig3_file_throughput.run, None),
    # Figure 4: adaptivity trace on HIGH data, no background.
    ("fig4", fig4_adaptivity_high.run, None),
    # Figure 5: adaptivity trace on LOW data, 2 connections.
    ("fig5", fig5_adaptivity_low.run, None),
    # Figure 6: responsiveness to compressibility switches.
    ("fig6", fig6_changing_compressibility.run, None),
    # Table II: completion times across classes, concurrency and
    # schemes — the paper's headline table.
    ("table2", table2_completion_times.run, 3),
    # Ablation: dead-band parameter alpha sweep (Section III-A).
    ("ablation_alpha", ablations.run_alpha, 2),
    # Ablation: exponential backoff on/off (Section III-A).
    ("ablation_backoff", ablations.run_backoff, 2),
    # Ablation: displayed-metric skew and fluctuation sensitivity of
    # decision models (the Section II motivation, quantified).
    ("ablation_metrics", ablations.run_metrics, 2),
    # Ablation: decision epoch length t sweep (paper default: 2 s).
    ("ablation_t", ablations.run_epoch_length, 2),
    # Extension: two adaptive senders sharing one link (fairness).
    ("ext_fairness", extensions.run_fairness, None),
    # Extension: adaptive compression on the file-write path (paper §VI
    # future work) — honest disk vs XEN write-back cache.
    ("ext_fileio", extensions.run_fileio, 2),
    # Extension: robust rate signals under fluctuation — raw vs naive
    # EWMA (negative result) vs per-level memory.
    ("ext_memory", extensions.run_memory, 3),
]


@pytest.mark.parametrize(
    "run_fn,repeats",
    [pytest.param(run_fn, repeats, id=exp_id) for exp_id, run_fn, repeats in EXPERIMENTS],
)
def test_bench_experiment(benchmark, scale, run_fn, repeats):
    kwargs = {} if repeats is None else {"repeats": repeats}
    run_experiment_benchmark(benchmark, run_fn, scale=scale, **kwargs)
