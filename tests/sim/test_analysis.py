"""Tests for the trace summary statistics."""

from __future__ import annotations

import pytest

from repro.data import Compressibility
from repro.sim import ScenarioConfig, make_dynamic_factory, run_transfer_scenario
from repro.sim.analysis import level_occupancy, rate_statistics
from repro.sim.transfer import TransferEpoch, TransferResult


@pytest.fixture(scope="module")
def result():
    cfg = ScenarioConfig(
        scheme_factory=make_dynamic_factory(),
        compressibility=Compressibility.HIGH,
        total_bytes=10**9,
        seed=6,
    )
    return run_transfer_scenario(cfg)


def synthetic_result():
    res = TransferResult(scheme_name="X")
    res.completion_time = 6.0
    for i, (lvl, rate) in enumerate([(0, 10.0), (1, 20.0), (1, 30.0)]):
        res.epochs.append(
            TransferEpoch(
                start=2.0 * i,
                end=2.0 * (i + 1),
                level=lvl,
                next_level=lvl,
                app_bytes=rate * 2,
                app_rate=rate,
                wire_rate=rate / 2,
                vm_cpu_util=5.0,
                host_cpu_util=50.0,
                displayed_bandwidth=rate,
            )
        )
    return res


class TestSummaries:
    def test_level_occupancy_sums_to_one(self, result):
        occupancy = level_occupancy(result)
        assert sum(occupancy.values()) == pytest.approx(1.0)
        assert all(0 <= frac <= 1 for frac in occupancy.values())

    def test_level_occupancy_synthetic(self):
        occ = level_occupancy(synthetic_result())
        assert occ[0] == pytest.approx(1 / 3)
        assert occ[1] == pytest.approx(2 / 3)

    def test_rate_statistics_synthetic(self):
        stats = rate_statistics(synthetic_result())
        assert stats["mean"] == pytest.approx(20.0)
        assert stats["min"] == 10.0
        assert stats["max"] == 30.0
        assert stats["p50"] == 20.0
        assert stats["p95"] == pytest.approx(29.0)

    def test_empty_trace(self):
        empty = TransferResult(scheme_name="X")
        assert level_occupancy(empty) == {}
        with pytest.raises(ValueError, match="no duration"):
            rate_statistics(empty)
