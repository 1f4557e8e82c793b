"""Per-flow trace capture: ``--trace-dir`` → v2 replay traces.

A daemon started with ``trace_dir`` writes one ``flow-<id>.jsonl`` per
closed echo flow — the controller's epoch history as a v2 observation
trace.  These tests pin the full loop: capture during a real transfer,
load through :func:`repro.schemes.replay.load_records`, byte-identical
re-serialization, and offline replay of a decision scheme over the
captured observations.
"""

from __future__ import annotations

import io
import time

import pytest

from repro.core.controller import EpochRecord
from repro.data import Compressibility, SyntheticCorpus
from repro.schemes.rate_based import RateBasedScheme
from repro.schemes.replay import (
    dump_trace,
    load_records,
    records_from_epochs,
    replay,
)
from repro.serve import ServeClient, ServeConfig, TransferServer


@pytest.fixture(scope="module")
def payload():
    corpus = SyntheticCorpus(file_size=64 * 1024, seed=37)
    return (
        corpus.payload(Compressibility.HIGH) * 16
        + corpus.payload(Compressibility.MODERATE) * 16
    )  # ~2 MB: a few ms on loopback, so several 0.1 ms epochs close


def _settle(predicate, deadline: float = 5.0) -> bool:
    end = time.monotonic() + deadline
    while not predicate():
        if time.monotonic() > end:
            return False
        time.sleep(0.02)
    return True


def _run_echo_flow(trace_dir, payload, **config_kwargs):
    srv = TransferServer(
        ServeConfig(
            port=0,
            max_flows=4,
            codec_workers=2,
            epoch_seconds=0.0001,
            trace_dir=str(trace_dir),
            **config_kwargs,
        )
    )
    srv.start()
    try:
        host, port = srv.address
        result = ServeClient(host, port, timeout=60.0).echo(
            payload, collect=False
        )
        assert result.trailer["ok"]
        assert _settle(lambda: srv.flows_completed == 1)
    finally:
        srv.stop(drain=True, timeout=10.0)
    return srv


def _sample_epochs(n: int = 4):
    return [
        EpochRecord(
            epoch=i,
            start=i * 0.25,
            end=(i + 1) * 0.25,
            app_bytes=1000 * (i + 1),
            app_rate=4000.0 * (i + 1),
            level_before=min(i, 3),
            level_after=min(i + 1, 3),
            backoff_snapshot=[0, 0, 0, 0],
        )
        for i in range(n)
    ]


class TestRecordsFromEpochs:
    def test_alignment_and_field_mapping(self):
        observations, decisions = records_from_epochs(
            _sample_epochs(), flow_id=7
        )
        assert len(observations) == len(decisions) == 4
        for i, (obs, dec) in enumerate(zip(observations, decisions)):
            assert obs.flow_id == dec.flow_id == 7
            assert obs.now == (i + 1) * 0.25
            assert obs.epoch_seconds == pytest.approx(0.25)
            assert obs.app_rate == 4000.0 * (i + 1)
            assert obs.level == dec.level_before == min(i, 3)
            assert dec.level_after == min(i + 1, 3)
            assert dec.epoch == i
            # Serve traces carry only what the controller measured.
            assert obs.displayed_cpu_util == 0.0
            assert obs.displayed_bandwidth == 0.0

    def test_empty_epochs(self):
        assert records_from_epochs([]) == ([], [])

    def test_dump_load_dump_byte_identity(self):
        observations, decisions = records_from_epochs(_sample_epochs())
        first = io.StringIO()
        assert dump_trace(observations, first, decisions) == 4

        first.seek(0)
        loaded = list(load_records(first))
        assert [d for _, d in loaded] == decisions

        second = io.StringIO()
        dump_trace(
            [obs for obs, _ in loaded], second, [d for _, d in loaded]
        )
        assert second.getvalue() == first.getvalue()


class TestDaemonTraceCapture:
    def test_trace_written_per_flow_and_replayable(self, tmp_path, payload):
        srv = _run_echo_flow(tmp_path / "traces", payload)
        files = sorted((tmp_path / "traces").glob("flow-*.jsonl"))
        assert len(files) == 1

        with files[0].open() as fp:
            loaded = list(load_records(fp))
        assert loaded, "trace must hold at least one controller epoch"
        for obs, decision in loaded:
            assert decision is not None  # v2: decisions recorded
            assert obs.level == decision.level_before
            assert obs.epoch_seconds > 0.0
            assert obs.app_rate >= 0.0

        # Round trip: re-serializing what was loaded reproduces the
        # file byte-for-byte — the capture path uses the same writer.
        out = io.StringIO()
        dump_trace([obs for obs, _ in loaded], out, [d for _, d in loaded])
        assert out.getvalue() == files[0].read_text()

        # Offline what-if: any scheme replays over the captured trace.
        levels = replay([obs for obs, _ in loaded], RateBasedScheme(n_levels=4))
        assert len(levels) == len(loaded)
        assert all(0 <= lvl <= 3 for lvl in levels)

    def test_static_flow_still_records_open_loop_trace(
        self, tmp_path, payload
    ):
        # A static server level bypasses the controller for the actual
        # re-encode, but the controller keeps learning open-loop — so
        # the trace still answers "what would adaptive have done here".
        _run_echo_flow(tmp_path / "traces", payload, level="MEDIUM")
        (path,) = sorted((tmp_path / "traces").glob("flow-*.jsonl"))
        with path.open() as fp:
            loaded = list(load_records(fp))
        assert loaded
        assert all(0 <= d.level_after <= 3 for _, d in loaded)
        assert all(d.level_before == obs.level for obs, d in loaded)

    def test_no_trace_dir_writes_nothing(self, tmp_path, payload):
        srv = TransferServer(
            ServeConfig(port=0, max_flows=4, codec_workers=2, epoch_seconds=0.02)
        )
        srv.start()
        try:
            host, port = srv.address
            result = ServeClient(host, port, timeout=60.0).echo(
                payload, collect=False
            )
            assert result.trailer["ok"]
        finally:
            srv.stop(drain=True, timeout=10.0)
        assert not list(tmp_path.glob("**/*.jsonl"))

    def test_unwritable_trace_dir_degrades_not_fails(self, tmp_path, payload):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the trace dir should go")
        srv = _run_echo_flow(blocker, payload)
        # The flow itself succeeded; the write failure was suppressed
        # into accounted telemetry, not a crash or a failed flow.
        assert srv.flows_completed == 1
        assert srv.flows_failed == 0
        assert srv.internal_error_sites.get("trace-write", 0) >= 1
