"""Tests for data sources (repeating and switching producers)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    Compressibility,
    RepeatingSource,
    Segment,
    SwitchingSource,
    SyntheticCorpus,
    iter_blocks,
)


@pytest.fixture(scope="module")
def small_corpus():
    return SyntheticCorpus(file_size=1024, seed=0)


class TestRepeatingSource:
    def test_emits_exact_total(self):
        src = RepeatingSource(b"abc", 10, Compressibility.LOW)
        out = b""
        while True:
            chunk = src.read(4)
            if not chunk:
                break
            out += chunk
        assert out == (b"abc" * 4)[:10]
        assert src.exhausted
        assert src.bytes_emitted == 10

    def test_payload_wraps_seamlessly(self):
        src = RepeatingSource(b"0123456789", 25, Compressibility.LOW)
        assert src.read(25) == b"0123456789" * 2 + b"01234"

    def test_read_past_end_returns_empty(self):
        src = RepeatingSource(b"ab", 3, Compressibility.LOW)
        src.read(100)
        assert src.read(1) == b""

    def test_zero_total(self):
        src = RepeatingSource(b"ab", 0, Compressibility.LOW)
        assert src.read(10) == b""
        assert src.exhausted

    def test_class_at_constant(self):
        src = RepeatingSource(b"ab", 100, Compressibility.HIGH)
        assert src.class_at(0) == Compressibility.HIGH
        assert src.class_at(99) == Compressibility.HIGH

    def test_validation(self):
        with pytest.raises(ValueError):
            RepeatingSource(b"", 10, Compressibility.LOW)
        with pytest.raises(ValueError):
            RepeatingSource(b"x", -1, Compressibility.LOW)
        src = RepeatingSource(b"x", 10, Compressibility.LOW)
        with pytest.raises(ValueError):
            src.read(-1)

    def test_from_corpus(self, small_corpus):
        src = RepeatingSource.from_corpus(
            Compressibility.MODERATE, 5000, corpus=small_corpus
        )
        data = src.read(5000)
        assert len(data) == 5000
        assert data[:1024] == small_corpus.payload(Compressibility.MODERATE)

    @given(
        total=st.integers(min_value=0, max_value=5000),
        chunk=st.integers(min_value=1, max_value=997),
    )
    @settings(max_examples=50)
    def test_total_bytes_conserved(self, total, chunk):
        src = RepeatingSource(b"payload!", total, Compressibility.LOW)
        emitted = 0
        while True:
            data = src.read(chunk)
            if not data:
                break
            emitted += len(data)
        assert emitted == total


class TestSwitchingSource:
    def test_alternating_segments(self, small_corpus):
        src = SwitchingSource.alternating(
            Compressibility.HIGH,
            Compressibility.LOW,
            segment_bytes=10,
            total_bytes=35,
            corpus=small_corpus,
        )
        assert src.total_bytes == 35
        assert src.class_at(0) == Compressibility.HIGH
        assert src.class_at(9) == Compressibility.HIGH
        assert src.class_at(10) == Compressibility.LOW
        assert src.class_at(20) == Compressibility.HIGH
        assert src.class_at(30) == Compressibility.LOW
        assert src.class_at(34) == Compressibility.LOW  # final short segment

    def test_read_crosses_segment_boundaries(self, small_corpus):
        src = SwitchingSource.alternating(
            Compressibility.HIGH,
            Compressibility.LOW,
            segment_bytes=1500,
            total_bytes=4000,
            corpus=small_corpus,
        )
        out = src.read(4000)
        assert len(out) == 4000
        assert src.exhausted
        # First 1500 bytes come from the HIGH payload (wrapped).
        high = small_corpus.payload(Compressibility.HIGH)
        assert out[:1024] == high
        assert out[1024:1500] == high[: 1500 - 1024]

    def test_segments_content_matches_class(self, small_corpus):
        src = SwitchingSource(
            [
                Segment(Compressibility.LOW, 100),
                Segment(Compressibility.MODERATE, 200),
            ],
            corpus=small_corpus,
        )
        low_part = src.read(100)
        mod_part = src.read(200)
        assert low_part == small_corpus.payload(Compressibility.LOW)[:100]
        assert mod_part == small_corpus.payload(Compressibility.MODERATE)[:200]

    def test_validation(self, small_corpus):
        with pytest.raises(ValueError):
            SwitchingSource([], corpus=small_corpus)
        with pytest.raises(ValueError):
            SwitchingSource([Segment(Compressibility.HIGH, 0)], corpus=small_corpus)
        src = SwitchingSource([Segment(Compressibility.HIGH, 5)], corpus=small_corpus)
        with pytest.raises(ValueError):
            src.class_at(-1)
        with pytest.raises(ValueError):
            src.read(-1)

    @given(
        seg=st.integers(min_value=1, max_value=500),
        total=st.integers(min_value=1, max_value=3000),
        chunk=st.integers(min_value=1, max_value=700),
    )
    @settings(max_examples=40, deadline=None)
    def test_total_conserved_property(self, seg, total, chunk):
        corpus = SyntheticCorpus(file_size=256, seed=0)
        src = SwitchingSource.alternating(
            Compressibility.HIGH,
            Compressibility.LOW,
            segment_bytes=seg,
            total_bytes=total,
            corpus=corpus,
        )
        emitted = 0
        while True:
            data = src.read(chunk)
            if not data:
                break
            emitted += len(data)
        assert emitted == total


class TestIterBlocks:
    def test_yields_block_sized_chunks(self):
        src = RepeatingSource(b"abcdef", 20, Compressibility.LOW)
        blocks = list(iter_blocks(src, 8))
        assert [len(b) for b in blocks] == [8, 8, 4]
        assert b"".join(blocks) == (b"abcdef" * 4)[:20]

    def test_block_size_validation(self):
        src = RepeatingSource(b"ab", 4, Compressibility.LOW)
        with pytest.raises(ValueError):
            list(iter_blocks(src, 0))


class TestLazyCorpusSource:
    def test_no_bytes_until_read(self, monkeypatch):
        from repro.data import corpus as corpus_mod

        generated = []
        generate = corpus_mod.generate

        def spy(compressibility, n_bytes=corpus_mod.DEFAULT_FILE_SIZE, seed=0):
            generated.append(compressibility)
            return generate(compressibility, n_bytes, seed)

        monkeypatch.setattr(corpus_mod, "generate", spy)
        corpus = SyntheticCorpus(file_size=1024, seed=0)
        src = RepeatingSource.from_corpus(Compressibility.MODERATE, 5000, corpus)
        assert src.class_at(0) is Compressibility.MODERATE
        assert src.skip(1000) == 1000
        assert not src.exhausted
        assert generated == []

        eager = RepeatingSource(
            generate(Compressibility.MODERATE, 1024, 0), 5000, Compressibility.MODERATE
        )
        eager.skip(1000)
        assert src.read(4000) == eager.read(4000)
        assert generated == [Compressibility.MODERATE]
        assert src.exhausted

    def test_from_corpus_validates_length(self):
        with pytest.raises(ValueError):
            RepeatingSource.from_corpus(Compressibility.LOW, -1)
