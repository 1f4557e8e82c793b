"""Tests for codec measurement helpers."""

from __future__ import annotations

import pytest

from repro.codecs import LightZlibCodec, NullCodec, measure_codec


class TestMeasureCodec:
    def test_basic_measurement(self, moderate_payload):
        m = measure_codec(LightZlibCodec(), moderate_payload, repeats=1)
        assert m.codec_name == "zlib-1"
        assert m.payload_bytes == len(moderate_payload)
        assert 0 < m.compressed_bytes < len(moderate_payload)
        assert 0 < m.ratio < 1
        assert m.compress_mb_per_s > 0
        assert m.decompress_mb_per_s > 0

    def test_null_codec_ratio_is_one(self, moderate_payload):
        m = measure_codec(NullCodec(), moderate_payload, repeats=1)
        assert m.ratio == 1.0

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            measure_codec(NullCodec(), b"x", repeats=0)

    def test_empty_payload(self):
        m = measure_codec(NullCodec(), b"", repeats=1)
        assert m.ratio == 1.0

    def test_injectable_clock(self):
        ticks = iter(range(100))
        m = measure_codec(
            NullCodec(), b"x" * 1000, repeats=1, clock=lambda: float(next(ticks))
        )
        assert m.compress_seconds == 1.0
        assert m.decompress_seconds == 1.0


class TestClockResolutionClamp:
    """A zero-duration measurement must never turn into ``Infinity``."""

    def frozen_clock_measurement(self):
        # The clock never advances, so both durations read as exactly 0.
        return measure_codec(NullCodec(), b"x" * 1000, repeats=2, clock=lambda: 5.0)

    def test_rates_are_finite_on_clock_tie(self):
        import math

        m = self.frozen_clock_measurement()
        assert m.compress_seconds == 0.0
        assert math.isfinite(m.compress_mb_per_s)
        assert math.isfinite(m.decompress_mb_per_s)
        assert m.compress_mb_per_s > 0

    def test_json_export_never_emits_infinity(self):
        import json

        m = self.frozen_clock_measurement()
        payload = {
            "codec": m.codec_name,
            "ratio": m.ratio,
            "compress_mb_per_s": m.compress_mb_per_s,
            "decompress_mb_per_s": m.decompress_mb_per_s,
        }
        # allow_nan=False raises on inf/nan: this is the regression guard.
        text = json.dumps(payload, allow_nan=False)
        assert "Infinity" not in text


class TestRatioStability:
    def test_deterministic_codec_is_stable(self, moderate_payload):
        m = measure_codec(LightZlibCodec(), moderate_payload, repeats=3)
        assert m.ratio_stable is True

    def test_nondeterministic_codec_is_flagged(self):
        class FlakyCodec(NullCodec):
            name = "flaky"

            def __init__(self):
                self._calls = 0

            def compress(self, data: bytes) -> bytes:
                self._calls += 1
                # Output size varies between repeats.
                return data + b"\x00" * (self._calls % 3)

        m = measure_codec(FlakyCodec(), b"y" * 100, repeats=3)
        assert m.ratio_stable is False
