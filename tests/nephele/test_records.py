"""Tests for record framing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nephele import RecordDecoder, RecordSerializationError, encode_record


class TestEncodeDecode:
    def test_roundtrip_single(self):
        decoder = RecordDecoder()
        decoder.feed(encode_record(b"hello"))
        assert decoder.next_record() == b"hello"
        assert decoder.next_record() is None

    def test_empty_record(self):
        decoder = RecordDecoder()
        decoder.feed(encode_record(b""))
        assert decoder.next_record() == b""

    def test_partial_feed(self):
        frame = encode_record(b"abcdef")
        decoder = RecordDecoder()
        decoder.feed(frame[:3])
        assert decoder.next_record() is None
        decoder.feed(frame[3:])
        assert decoder.next_record() == b"abcdef"

    def test_multiple_records_in_one_feed(self):
        decoder = RecordDecoder()
        decoder.feed(encode_record(b"a") + encode_record(b"bb") + encode_record(b"ccc"))
        assert list(decoder.drain()) == [b"a", b"bb", b"ccc"]

    def test_oversize_record_rejected_on_encode(self):
        from repro.nephele.records import MAX_RECORD_BYTES

        with pytest.raises(RecordSerializationError):
            # Fake it via a manipulated length: encoding a real 256 MB
            # record would be wasteful, so check the decoder side too.
            encode_record(b"x" * (MAX_RECORD_BYTES + 1))

    def test_oversize_length_rejected_on_decode(self):
        import struct

        decoder = RecordDecoder()
        decoder.feed(struct.pack("<I", 2**31))
        with pytest.raises(RecordSerializationError):
            decoder.next_record()

    def test_assert_empty(self):
        decoder = RecordDecoder()
        decoder.feed(b"\x05\x00\x00")
        with pytest.raises(RecordSerializationError):
            decoder.assert_empty()

    @given(records=st.lists(st.binary(max_size=300), max_size=30))
    @settings(max_examples=100)
    def test_roundtrip_property(self, records):
        decoder = RecordDecoder()
        for r in records:
            decoder.feed(encode_record(r))
        assert list(decoder.drain()) == records
        decoder.assert_empty()

    @given(
        records=st.lists(st.binary(max_size=100), min_size=1, max_size=10),
        chunk=st.integers(min_value=1, max_value=17),
    )
    @settings(max_examples=60)
    def test_roundtrip_any_chunking(self, records, chunk):
        stream = b"".join(encode_record(r) for r in records)
        decoder = RecordDecoder()
        out = []
        for i in range(0, len(stream), chunk):
            decoder.feed(stream[i : i + chunk])
            out.extend(decoder.drain())
        assert out == records
