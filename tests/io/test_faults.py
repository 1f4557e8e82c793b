"""Tests for the deterministic fault-injection wrappers."""

from __future__ import annotations

import io

import pytest

from repro.io.faults import (
    BitFlip,
    FaultPlan,
    FaultyReader,
    FaultyWriter,
    Reset,
    Stall,
    Truncate,
)
from repro.telemetry.events import BUS, FaultInjected


@pytest.fixture(autouse=True)
def clean_bus():
    BUS.clear()
    yield
    BUS.clear()


class TestFaultPlan:
    def test_sorted_by_offset(self):
        plan = FaultPlan([BitFlip(50), Truncate(10), Stall(30)])
        assert [f.offset for f in plan] == [10, 30, 50]

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan([BitFlip(-1)])

    def test_seeded_deterministic(self):
        a = FaultPlan.seeded(7, 10_000, bitflips=3, stalls=2, truncate=True)
        b = FaultPlan.seeded(7, 10_000, bitflips=3, stalls=2, truncate=True)
        assert a.faults == b.faults
        assert len(a) == 6

    def test_seeded_different_seeds_differ(self):
        a = FaultPlan.seeded(1, 10_000, bitflips=5)
        b = FaultPlan.seeded(2, 10_000, bitflips=5)
        assert a.faults != b.faults

    def test_seeded_offsets_in_range(self):
        plan = FaultPlan.seeded(3, 1000, bitflips=50, truncate=True, reset=True)
        assert all(0 <= f.offset < 1000 for f in plan)

    def test_seeded_requires_room(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(1, 0, bitflips=1)


class TestFaultyWriter:
    def test_bitflip_at_exact_offset(self):
        sink = io.BytesIO()
        w = FaultyWriter(sink, FaultPlan([BitFlip(5, mask=0x80)]))
        w.write(b"\x00" * 4)
        w.write(b"\x00" * 4)
        assert sink.getvalue() == b"\x00" * 5 + b"\x80" + b"\x00" * 2
        assert w.faults_fired == 1

    def test_truncate_swallows_rest_silently(self):
        sink = io.BytesIO()
        w = FaultyWriter(sink, FaultPlan([Truncate(6)]))
        assert w.write(b"abcdefgh") == 8  # full length reported
        assert w.write(b"ijk") == 3
        assert sink.getvalue() == b"abcdef"
        assert w.bytes_seen == 11

    def test_reset_raises_after_prefix(self):
        sink = io.BytesIO()
        w = FaultyWriter(sink, FaultPlan([Reset(4)]))
        with pytest.raises(ConnectionResetError):
            w.write(b"abcdefgh")
        assert sink.getvalue() == b""  # nothing written once the reset fires

    def test_stall_sleeps_injected(self):
        naps = []
        sink = io.BytesIO()
        w = FaultyWriter(
            sink, FaultPlan([Stall(3, seconds=0.25)]), sleep=naps.append
        )
        w.write(b"abcdefgh")
        assert naps == [0.25]
        assert sink.getvalue() == b"abcdefgh"

    def test_multiple_flips_one_chunk(self):
        sink = io.BytesIO()
        w = FaultyWriter(
            sink, FaultPlan([BitFlip(0, mask=1), BitFlip(2, mask=2)])
        )
        w.write(b"\x00\x00\x00\x00")
        assert sink.getvalue() == b"\x01\x00\x02\x00"

    def test_publishes_fault_injected(self):
        events = []
        BUS.subscribe(events.append, FaultInjected)
        sink = io.BytesIO()
        w = FaultyWriter(sink, FaultPlan([BitFlip(1), Truncate(3)]))
        w.write(b"abcdef")
        assert [e.kind for e in events] == ["bitflip", "truncate"]
        assert [e.offset for e in events] == [1, 3]
        assert all(e.side == "write" for e in events)


class TestFaultyReader:
    def test_bitflip_on_read(self):
        r = FaultyReader(io.BytesIO(b"\x00" * 8), FaultPlan([BitFlip(6, mask=1)]))
        assert r.read(4) == b"\x00" * 4
        assert r.read(4) == b"\x00\x00\x01\x00"

    def test_truncate_reads_eof(self):
        r = FaultyReader(io.BytesIO(b"abcdefgh"), FaultPlan([Truncate(5)]))
        assert r.read(4) == b"abcd"
        assert r.read(4) == b"e"
        assert r.read(4) == b""
        assert r.read(4) == b""

    def test_reset_raises(self):
        r = FaultyReader(io.BytesIO(b"abcdefgh"), FaultPlan([Reset(2)]))
        with pytest.raises(ConnectionResetError):
            r.read(8)

    def test_readinto_applies_faults(self):
        r = FaultyReader(io.BytesIO(b"\x00" * 6), FaultPlan([BitFlip(1, mask=4)]))
        buf = bytearray(6)
        got = r.readinto(buf)
        assert got == 6
        assert bytes(buf) == b"\x00\x04\x00\x00\x00\x00"
