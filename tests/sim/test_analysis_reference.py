"""The plain-Python trace statistics against a numpy reference.

``level_occupancy`` and ``rate_statistics`` were first written with
numpy.  That code is kept here, as the reference, and both must agree
to 1e-12 relative on recorded scenario traces, including a trace of one
epoch.  numpy is a test-only dependency; without it this module skips.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.data import Compressibility
from repro.sim import (
    ScenarioConfig,
    make_dynamic_factory,
    make_static_factory,
    run_transfer_scenario,
)
from repro.sim.analysis import level_occupancy, rate_statistics
from repro.sim.transfer import TransferResult

np = pytest.importorskip("numpy")

REL = 1e-12


def numpy_level_occupancy(result):
    start = np.array([e.start for e in result.epochs], dtype=float)
    end = np.array([e.end for e in result.epochs], dtype=float)
    level = np.array([e.level for e in result.epochs], dtype=int)
    durations = end - start
    total = float(durations.sum())
    if total <= 0:
        return {}
    return {
        int(lvl): float(durations[level == lvl].sum() / total)
        for lvl in np.unique(level)
    }


def numpy_rate_statistics(result):
    start = np.array([e.start for e in result.epochs], dtype=float)
    end = np.array([e.end for e in result.epochs], dtype=float)
    rates = np.array([e.app_rate for e in result.epochs], dtype=float)
    durations = end - start
    if durations.sum() <= 0:
        raise ValueError("trace has no duration")
    weights = durations / durations.sum()
    mean = float(np.sum(weights * rates))
    var = float(np.sum(weights * (rates - mean) ** 2))
    return {
        "mean": mean,
        "std": float(np.sqrt(var)),
        "min": float(rates.min()),
        "max": float(rates.max()),
        "p50": float(np.percentile(rates, 50)),
        "p95": float(np.percentile(rates, 95)),
    }


#: Recorded traces of 19 to 165 epochs; the first is the one
#: ``examples/trace_replay.py`` analyzes.
CONFIGS = {
    "dynamic-high-bg2": dict(
        compressibility=Compressibility.HIGH, n_background=2, seed=12
    ),
    "dynamic-moderate-bg2": dict(
        compressibility=Compressibility.MODERATE, n_background=2, seed=7
    ),
    "dynamic-low-bg3": dict(
        compressibility=Compressibility.LOW,
        n_background=3,
        total_bytes=10 * 10**9,
        seed=8,
    ),
    "light-high-bg1": dict(
        scheme_factory=make_static_factory(1, "LIGHT"), n_background=1, seed=9
    ),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def recorded(request):
    kwargs = dict(scheme_factory=make_dynamic_factory(), total_bytes=5 * 10**9)
    kwargs.update(CONFIGS[request.param])
    result = run_transfer_scenario(ScenarioConfig(**kwargs))
    assert len(result.epochs) > 8
    return result


def prefix(result, n):
    """The same run, cut after its first ``n`` epochs."""
    return dataclasses.replace(result, epochs=result.epochs[:n])


def assert_close(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=REL, abs=0), key


@pytest.mark.parametrize("n_epochs", [None, 1, 2])
def test_level_occupancy_matches_numpy(recorded, n_epochs):
    trace = recorded if n_epochs is None else prefix(recorded, n_epochs)
    assert_close(level_occupancy(trace), numpy_level_occupancy(trace))


@pytest.mark.parametrize("n_epochs", [None, 1, 2])
def test_rate_statistics_matches_numpy(recorded, n_epochs):
    trace = recorded if n_epochs is None else prefix(recorded, n_epochs)
    assert_close(rate_statistics(trace), numpy_rate_statistics(trace))


def test_empty_trace_matches_numpy():
    empty = TransferResult(scheme_name="X")
    assert level_occupancy(empty) == numpy_level_occupancy(empty) == {}
    with pytest.raises(ValueError, match="no duration"):
        numpy_rate_statistics(empty)
    with pytest.raises(ValueError, match="no duration"):
        rate_statistics(empty)
