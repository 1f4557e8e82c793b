"""Smoke + shape tests for the experiment harness.

Each paper artifact runs at a small scale and must (a) complete,
(b) produce its rendered artifact, and (c) pass all of its own
shape checks — the codified versions of the paper's claims.
"""

from __future__ import annotations

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
from repro.experiments.common import ExperimentResult, scaled_bytes, scheme_factories
from repro.experiments.runner import EXPERIMENTS, PAPER_SET, main

SCALE = 0.05  # small but structurally meaningful


def assert_result_ok(result: ExperimentResult):
    assert isinstance(result, ExperimentResult)
    assert result.rendered
    assert result.checks
    assert result.ok, f"{result.experiment_id} failed shapes: {result.failures}"


class TestPaperArtifacts:
    def test_fig1(self):
        assert_result_ok(fig1_cpu_accuracy.run(scale=SCALE))

    def test_fig2(self):
        assert_result_ok(fig2_net_throughput.run(scale=SCALE))

    def test_fig3(self):
        assert_result_ok(fig3_file_throughput.run(scale=SCALE))

    def test_table2(self):
        assert_result_ok(table2_completion_times.run(scale=SCALE, repeats=2))

    def test_fig4(self):
        assert_result_ok(fig4_adaptivity_high.run(scale=SCALE))

    def test_fig5(self):
        assert_result_ok(fig5_adaptivity_low.run(scale=SCALE))

    def test_fig6(self):
        assert_result_ok(fig6_changing_compressibility.run(scale=SCALE))


class TestAblations:
    def test_alpha(self):
        assert_result_ok(ablations.run_alpha(scale=SCALE, repeats=1))

    def test_backoff(self):
        assert_result_ok(ablations.run_backoff(scale=SCALE, repeats=1))

    def test_epoch_length(self):
        assert_result_ok(ablations.run_epoch_length(scale=SCALE, repeats=1))

    def test_metrics(self):
        assert_result_ok(ablations.run_metrics(scale=SCALE, repeats=1))


class TestExtensions:
    def test_fileio(self):
        assert_result_ok(extensions.run_fileio(scale=SCALE, repeats=1))

    def test_memory(self):
        assert_result_ok(extensions.run_memory(scale=SCALE, repeats=2))

    def test_fairness(self):
        assert_result_ok(extensions.run_fairness(scale=SCALE))

    def test_faults(self):
        assert_result_ok(extensions.run_faults(scale=SCALE))


class TestCommon:
    def test_scheme_factories_cover_table2_rows(self):
        factories = scheme_factories()
        assert set(factories) == {"NO", "LIGHT", "MEDIUM", "HEAVY", "DYNAMIC"}
        for name, factory in factories.items():
            scheme = factory(4)
            assert scheme.name == name

    def test_scaled_bytes(self):
        assert scaled_bytes(1.0) == 50 * 10**9
        assert scaled_bytes(0.1) == 5 * 10**9
        assert scaled_bytes(0.000001) == 200 * 10**6  # floor
        with pytest.raises(ValueError):
            scaled_bytes(0.0)
        with pytest.raises(ValueError):
            scaled_bytes(1.5)

    def test_render_includes_checks(self):
        result = ExperimentResult(
            experiment_id="x", title="t", rendered="body", checks=["[OK  ] fine"]
        )
        out = result.render()
        assert "== x: t ==" in out
        assert "body" in out
        assert "[OK  ] fine" in out


class TestRunnerCli:
    def test_registry_covers_paper_set(self):
        assert set(PAPER_SET) <= set(EXPERIMENTS)
        assert len(EXPERIMENTS) >= 11

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out

    def test_unknown_experiment(self, capsys):
        assert main(["bogus"]) == 2

    def test_single_experiment_run(self, capsys):
        rc = main(["fig4", "--scale", "0.05"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig4" in out
        assert "[OK" in out
