"""Tests for the synthetic corpus generators.

The load-bearing assertions are the compressibility bands: the paper's
evaluation is meaningful only if HIGH/MODERATE/LOW actually land where
ptt5 / alice29.txt / image.jpg landed (Section IV-A).
"""

from __future__ import annotations

import pytest

from repro.codecs import LightZlibCodec, LzmaCodec, MediumZlibCodec
from repro.data import (
    Compressibility,
    SyntheticCorpus,
    generate,
    measured_ratio,
    shannon_entropy,
)

SIZE = 128 * 1024


@pytest.fixture(scope="module")
def payloads():
    return {c: generate(c, SIZE, seed=3) for c in Compressibility}


class TestDeterminism:
    @pytest.mark.parametrize("compressibility", list(Compressibility))
    def test_same_seed_same_bytes(self, compressibility):
        a = generate(compressibility, 4096, seed=11)
        b = generate(compressibility, 4096, seed=11)
        assert a == b

    @pytest.mark.parametrize("compressibility", list(Compressibility))
    def test_different_seed_different_bytes(self, compressibility):
        a = generate(compressibility, 4096, seed=1)
        b = generate(compressibility, 4096, seed=2)
        assert a != b

    @pytest.mark.parametrize("compressibility", list(Compressibility))
    def test_exact_length(self, compressibility):
        for n in (0, 1, 100, 4097):
            assert len(generate(compressibility, n, seed=0)) == n

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            generate(Compressibility.HIGH, -1)


class TestCompressibilityBands:
    """Paper's bands: HIGH 10-15 %, MODERATE 30-50 %, LOW 90-95 %.

    We allow slightly wider tolerances because the bands themselves were
    quoted loosely ("common compression libraries").
    """

    def test_high_band(self, payloads):
        ratio = measured_ratio(payloads[Compressibility.HIGH], LightZlibCodec())
        assert 0.05 <= ratio <= 0.20

    def test_moderate_band(self, payloads):
        ratio = measured_ratio(payloads[Compressibility.MODERATE], LightZlibCodec())
        assert 0.30 <= ratio <= 0.55

    def test_low_band(self, payloads):
        ratio = measured_ratio(payloads[Compressibility.LOW], LightZlibCodec())
        assert 0.85 <= ratio <= 1.0

    def test_classes_strictly_ordered(self, payloads):
        ratios = {
            c: measured_ratio(payloads[c], MediumZlibCodec()) for c in Compressibility
        }
        assert (
            ratios[Compressibility.HIGH]
            < ratios[Compressibility.MODERATE]
            < ratios[Compressibility.LOW]
        )

    def test_heavy_codec_improves_ratio_on_compressible(self, payloads):
        """LZMA must out-compress fast zlib where there is redundancy."""
        for c in (Compressibility.HIGH, Compressibility.MODERATE):
            light = measured_ratio(payloads[c], LightZlibCodec())
            heavy = measured_ratio(payloads[c], LzmaCodec(preset=2))
            assert heavy < light


class TestEntropy:
    def test_entropy_ordering(self, payloads):
        e = {c: shannon_entropy(payloads[c]) for c in Compressibility}
        assert e[Compressibility.HIGH] < e[Compressibility.MODERATE] < e[Compressibility.LOW]

    def test_low_payload_near_max_entropy(self, payloads):
        assert shannon_entropy(payloads[Compressibility.LOW]) > 7.5

    def test_moderate_is_ascii_text(self, payloads):
        text = payloads[Compressibility.MODERATE]
        assert all(b < 128 for b in text)
        assert b"\n" in text


class TestSyntheticCorpus:
    def test_payload_cached(self):
        corpus = SyntheticCorpus(file_size=1024, seed=0)
        a = corpus.payload(Compressibility.HIGH)
        b = corpus.payload(Compressibility.HIGH)
        assert a is b

    def test_iterates_all_classes(self):
        assert set(SyntheticCorpus()) == set(Compressibility)

    def test_file_size_respected(self):
        corpus = SyntheticCorpus(file_size=2048, seed=0)
        assert len(corpus.payload(Compressibility.LOW)) == 2048
