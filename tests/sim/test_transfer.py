"""Tests for the Section IV transfer simulation and scenario runner."""

from __future__ import annotations

import pytest

from repro.data import Compressibility
from repro.sim import (
    PAPER_TOTAL_BYTES,
    ScenarioConfig,
    make_dynamic_factory,
    make_static_factory,
    run_transfer_scenario,
)

GB = 10**9


def run_cell(scheme_factory, cls=Compressibility.HIGH, total=2 * GB, c=0, seed=1, **kw):
    cfg = ScenarioConfig(
        scheme_factory=scheme_factory,
        compressibility=cls,
        total_bytes=total,
        n_background=c,
        seed=seed,
        **kw,
    )
    return run_transfer_scenario(cfg)


class TestBasicProperties:
    def test_all_bytes_transferred(self):
        res = run_cell(make_static_factory(0, "NO"))
        assert res.total_app_bytes == pytest.approx(2 * GB)
        assert res.completion_time > 0

    def test_wire_bytes_reflect_compression(self):
        raw = run_cell(make_static_factory(0, "NO"), cls=Compressibility.HIGH)
        compressed = run_cell(make_static_factory(1, "LIGHT"), cls=Compressibility.HIGH)
        assert compressed.total_wire_bytes < raw.total_wire_bytes / 5

    def test_no_compression_wire_equals_app_plus_headers(self):
        res = run_cell(make_static_factory(0, "NO"))
        overhead = res.total_wire_bytes / res.total_app_bytes
        assert 1.0 < overhead < 1.001

    def test_epochs_cover_run(self):
        res = run_cell(make_static_factory(1, "LIGHT"))
        assert res.epochs
        assert res.epochs[0].start == pytest.approx(0.0, abs=3.0)
        assert res.epochs[-1].end == pytest.approx(res.completion_time, abs=3.0)
        total_epoch_bytes = sum(e.app_bytes for e in res.epochs)
        assert total_epoch_bytes == pytest.approx(res.total_app_bytes, rel=0.01)

    def test_deterministic_given_seed(self):
        a = run_cell(make_dynamic_factory(), seed=4)
        b = run_cell(make_dynamic_factory(), seed=4)
        assert a.completion_time == b.completion_time

    def test_seeds_vary_results(self):
        a = run_cell(make_dynamic_factory(), seed=1)
        b = run_cell(make_dynamic_factory(), seed=2)
        assert a.completion_time != b.completion_time

    def test_mean_app_rate(self):
        res = run_cell(make_static_factory(0, "NO"))
        assert res.mean_app_rate == pytest.approx(
            res.total_app_bytes / res.completion_time
        )

    def test_paper_total_constant(self):
        assert PAPER_TOTAL_BYTES == 50 * GB


class TestTable2Shapes:
    """Scaled-down (2 GB) sanity versions of the Table II claims; the
    full-scale reproduction lives in benchmarks/bench_experiments.py."""

    def test_light_wins_on_high(self):
        times = {
            name: run_cell(make_static_factory(lvl, name), cls=Compressibility.HIGH).completion_time
            for lvl, name in [(0, "NO"), (1, "LIGHT"), (2, "MEDIUM"), (3, "HEAVY")]
        }
        assert times["LIGHT"] < times["MEDIUM"] < times["NO"] < times["HEAVY"]

    def test_no_wins_on_moderate_unloaded(self):
        times = {
            name: run_cell(make_static_factory(lvl, name), cls=Compressibility.MODERATE).completion_time
            for lvl, name in [(0, "NO"), (1, "LIGHT"), (3, "HEAVY")]
        }
        assert times["NO"] < times["LIGHT"] < times["HEAVY"]

    def test_background_slows_uncompressed_transfer(self):
        alone = run_cell(make_static_factory(0, "NO"), c=0).completion_time
        crowded = run_cell(make_static_factory(0, "NO"), c=3).completion_time
        assert crowded > 2.0 * alone

    def test_heavy_barely_affected_by_background(self):
        """HEAVY is CPU-bound; Table II shows ~6 % total degradation."""
        alone = run_cell(
            make_static_factory(3, "HEAVY"), cls=Compressibility.HIGH, c=0
        ).completion_time
        crowded = run_cell(
            make_static_factory(3, "HEAVY"), cls=Compressibility.HIGH, c=3
        ).completion_time
        assert crowded < 1.2 * alone

    def test_dynamic_close_to_best_static(self):
        """The <=22 % claim, on the scaled-down HIGH/0 cell."""
        static_times = [
            run_cell(make_static_factory(lvl, n), cls=Compressibility.HIGH).completion_time
            for lvl, n in [(0, "NO"), (1, "LIGHT"), (2, "MEDIUM"), (3, "HEAVY")]
        ]
        dynamic = run_cell(make_dynamic_factory(), cls=Compressibility.HIGH).completion_time
        assert dynamic <= 1.35 * min(static_times)  # extra slack at 2 GB scale

    def test_dynamic_beats_no_compression_on_contended_high(self):
        """The 'up to factor 4' headline, scaled down."""
        no = run_cell(make_static_factory(0, "NO"), cls=Compressibility.HIGH, c=3)
        dyn = run_cell(make_dynamic_factory(), cls=Compressibility.HIGH, c=3)
        assert no.completion_time / dyn.completion_time > 2.5


class TestDynamicBehaviour:
    def test_dynamic_converges_to_light_on_high(self):
        """Figure 4: LIGHT is found quickly and held."""
        res = run_cell(make_dynamic_factory(), cls=Compressibility.HIGH, total=5 * GB)
        levels = [e.level for e in res.epochs]
        # The second half of the run must be dominated by LIGHT (1).
        second_half = levels[len(levels) // 2 :]
        assert second_half.count(1) / len(second_half) > 0.8

    def test_dynamic_level_changes_single_step(self):
        res = run_cell(make_dynamic_factory(), cls=Compressibility.MODERATE)
        for e in res.epochs:
            assert abs(e.next_level - e.level) <= 1

    def test_epoch_observations_have_metrics(self):
        res = run_cell(make_dynamic_factory())
        for e in res.epochs:
            assert e.app_rate > 0
            assert e.vm_cpu_util >= 0
            assert e.host_cpu_util >= e.vm_cpu_util

    def test_level_timeline_monotone_times(self):
        res = run_cell(make_dynamic_factory(), cls=Compressibility.HIGH)
        timeline = res.level_timeline()
        times = [t for t, _ in timeline]
        assert times == sorted(times)


class TestValidation:
    def test_scheme_model_level_mismatch(self):
        from repro.sim import (
            CodecSimModel,
            Environment,
            RngStreams,
            SharedLink,
            TransferSim,
        )
        from repro.data import RepeatingSource
        from repro.schemes import StaticScheme

        env = Environment()
        link = SharedLink(env, capacity=1e8)
        source = RepeatingSource(b"x", 100, Compressibility.LOW)
        with pytest.raises(ValueError, match="levels"):
            TransferSim(
                env,
                link,
                source,
                StaticScheme(2, 0),
                CodecSimModel(),
                RngStreams(0).stream("t"),
            )

    def test_bad_epoch_seconds(self):
        from repro.sim import (
            CodecSimModel,
            Environment,
            RngStreams,
            SharedLink,
            TransferSim,
        )
        from repro.data import RepeatingSource
        from repro.schemes import StaticScheme

        env = Environment()
        link = SharedLink(env, capacity=1e8)
        source = RepeatingSource(b"x", 100, Compressibility.LOW)
        with pytest.raises(ValueError, match="epoch_seconds"):
            TransferSim(
                env,
                link,
                source,
                StaticScheme(4, 0),
                CodecSimModel(),
                RngStreams(0).stream("t"),
                epoch_seconds=0,
            )
