"""Tests for the reporting helpers."""

from __future__ import annotations

import pytest

from repro.experiments.reporting import (
    DIST_HEADERS,
    Distribution,
    check,
    format_grouped_bars,
    format_table,
    format_timeseries,
)


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(["a", "long-header"], [["x", 1], ["yy", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[1]
        assert set(lines[2]) == {"-"}
        assert lines[3].startswith("x ")

    def test_cell_wider_than_header(self):
        out = format_table(["h"], [["wide-cell"]])
        header_line, rule, row = out.splitlines()
        assert len(rule) >= len("wide-cell")


class TestDistribution:
    def test_five_number_summary(self):
        d = Distribution.from_samples([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert d.minimum == 1
        assert d.maximum == 10
        assert d.n == 10
        assert d.p25 < d.median < d.p75
        assert d.mean == pytest.approx(5.5)

    def test_single_sample(self):
        d = Distribution.from_samples([7.0])
        assert d.median == 7.0
        assert d.stdev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Distribution.from_samples([])

    def test_row_scaling(self):
        d = Distribution.from_samples([1e6, 2e6, 3e6])
        row = d.row(scale=1e6)
        assert len(row) == len(DIST_HEADERS)
        assert row[0] == "2.0"


class TestBarsAndSeries:
    def test_grouped_bars(self):
        out = format_grouped_bars({"G": {"VM": 10.0, "Host": 100.0}})
        assert "G" in out
        assert out.count("#") > 0
        vm_line = [l for l in out.splitlines() if "VM" in l][0]
        host_line = [l for l in out.splitlines() if "Host" in l][0]
        assert host_line.count("#") > vm_line.count("#")

    def test_timeseries_length(self):
        out = format_timeseries([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0], "x", n_buckets=10)
        assert "|" in out
        assert "peak=" in out

    def test_timeseries_validation(self):
        with pytest.raises(ValueError):
            format_timeseries([], [], "x")
        with pytest.raises(ValueError):
            format_timeseries([1], [1, 2], "x")


class TestSmallHelpers:
    def test_check_ok(self):
        failures = []
        line = check(True, "all good", failures)
        assert line.startswith("[OK")
        assert failures == []

    def test_check_fail_collects(self):
        failures = []
        line = check(False, "broken", failures)
        assert line.startswith("[FAIL")
        assert failures == ["broken"]
