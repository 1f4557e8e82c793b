"""Tests for observation-trace record/replay."""

from __future__ import annotations

import io

import pytest

from repro.data import Compressibility
from repro.schemes import FlowDecision, RateBasedScheme, StaticScheme
from repro.schemes.replay import (
    HEADER,
    TraceFormatError,
    dump_trace,
    load_records,
    load_trace,
    observations_from_result,
    replay,
    replay_many,
)
from repro.sim import ScenarioConfig, make_dynamic_factory, run_transfer_scenario


@pytest.fixture(scope="module")
def result():
    cfg = ScenarioConfig(
        scheme_factory=make_dynamic_factory(),
        compressibility=Compressibility.HIGH,
        total_bytes=10**9,
        seed=5,
    )
    return run_transfer_scenario(cfg)


class TestRoundTrip:
    def test_dump_and_load(self, result):
        observations = observations_from_result(result)
        buf = io.StringIO()
        n = dump_trace(observations, buf)
        assert n == len(observations)
        buf.seek(0)
        loaded = list(load_trace(buf))
        assert loaded == observations

    def test_empty_trace_roundtrip(self):
        buf = io.StringIO()
        assert dump_trace([], buf) == 0
        buf.seek(0)
        assert list(load_trace(buf)) == []

    def test_blank_lines_skipped(self, result):
        observations = observations_from_result(result)[:2]
        buf = io.StringIO()
        dump_trace(observations, buf)
        buf.write("\n\n")
        buf.seek(0)
        assert len(list(load_trace(buf))) == 2


class TestV2Decisions:
    def test_header_is_version_2(self):
        assert HEADER["version"] == 2

    def test_roundtrip_with_decisions(self, result):
        observations = observations_from_result(result)
        decisions = [
            FlowDecision(
                flow_id=0, epoch=i, level_before=e.level, level_after=e.next_level
            )
            for i, e in enumerate(result.epochs)
        ]
        buf = io.StringIO()
        dump_trace(observations, buf, decisions=decisions)
        buf.seek(0)
        records = list(load_records(buf))
        assert [obs for obs, _ in records] == observations
        assert [dec for _, dec in records] == decisions

    def test_observations_carry_levels(self, result):
        observations = observations_from_result(result)
        assert [o.level for o in observations] == [e.level for e in result.epochs]

    def test_short_decision_sequence_rejected(self, result):
        observations = observations_from_result(result)
        with pytest.raises(TraceFormatError, match="shorter"):
            dump_trace(observations, io.StringIO(), decisions=[])

    def test_v1_trace_still_loads(self):
        """A seed-era v1 line (seven fields, no fleet context) loads
        with the fleet fields at their lone-flow defaults."""
        buf = io.StringIO(
            '{"format": "repro-observation-trace", "version": 1}\n'
            '{"now": 2.0, "epoch_seconds": 2.0, "app_rate": 5e7, '
            '"displayed_cpu_util": 20.0, "displayed_bandwidth": 9e7, '
            '"queue_slope": 0.0, "observed_ratio": null}\n'
        )
        records = list(load_records(buf))
        assert len(records) == 1
        obs, decision = records[0]
        assert decision is None
        assert obs.app_rate == 5e7
        assert obs.flow_id == 0 and obs.active_flows == 1
        assert obs.worker_weight == 1.0


class TestFormatErrors:
    def test_empty_file(self):
        with pytest.raises(TraceFormatError, match="empty"):
            list(load_trace(io.StringIO("")))

    def test_wrong_format(self):
        with pytest.raises(TraceFormatError, match="not an observation trace"):
            list(load_trace(io.StringIO('{"format": "something-else"}\n')))

    def test_bad_version(self):
        buf = io.StringIO('{"format": "repro-observation-trace", "version": 99}\n')
        with pytest.raises(TraceFormatError, match="version"):
            list(load_trace(buf))

    def test_garbage_record(self):
        buf = io.StringIO(
            '{"format": "repro-observation-trace", "version": 1}\nnot-json\n'
        )
        with pytest.raises(TraceFormatError, match="line 2"):
            list(load_trace(buf))

    def test_wrong_fields(self):
        buf = io.StringIO(
            '{"format": "repro-observation-trace", "version": 1}\n{"nope": 1}\n'
        )
        with pytest.raises(TraceFormatError):
            list(load_trace(buf))


class TestReplay:
    def test_replay_reproduces_original_decisions(self, result):
        """Replaying the DYNAMIC-recorded trace through a fresh DYNAMIC
        scheme reproduces the recorded next-level sequence exactly
        (the scheme is deterministic in its observations)."""
        observations = observations_from_result(result)
        levels = replay(observations, RateBasedScheme(4))
        assert levels == [e.next_level for e in result.epochs]

    def test_replay_static(self, result):
        observations = observations_from_result(result)
        levels = replay(observations, StaticScheme(4, 2))
        assert levels == [2] * len(observations)

    def test_replay_many(self, result):
        observations = observations_from_result(result)
        table = replay_many(
            observations, [RateBasedScheme(4), StaticScheme(4, 0, name="NO")]
        )
        assert set(table) == {"DYNAMIC", "NO"}
        assert len(table["DYNAMIC"]) == len(observations)
