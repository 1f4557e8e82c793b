"""Record (de)serialization for channel transport.

Nephele tasks exchange *records*; channels move *bytes*.  This module
provides the length-prefixed record framing the channels use so that
arbitrary byte records survive transport through any channel type.

Wire format per record: 4-byte little-endian length + payload.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

_LEN = struct.Struct("<I")

#: Records larger than this are rejected (sanity bound, 256 MB).
MAX_RECORD_BYTES = 256 * 1024 * 1024


class RecordSerializationError(Exception):
    """Raised on malformed record frames."""


def encode_record(record: bytes) -> bytes:
    """Length-prefix one record."""
    if len(record) > MAX_RECORD_BYTES:
        raise RecordSerializationError(
            f"record of {len(record)} bytes exceeds the {MAX_RECORD_BYTES} cap"
        )
    return _LEN.pack(len(record)) + record


class RecordDecoder:
    """Incremental decoder: feed bytes, pull complete records."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def next_record(self) -> Optional[bytes]:
        """Return the next complete record, or None if more bytes are needed."""
        if len(self._buffer) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(self._buffer)
        if length > MAX_RECORD_BYTES:
            raise RecordSerializationError(f"record length {length} exceeds cap")
        end = _LEN.size + length
        if len(self._buffer) < end:
            return None
        record = bytes(self._buffer[_LEN.size : end])
        del self._buffer[:end]
        return record

    def drain(self) -> Iterator[bytes]:
        """Yield all currently complete records."""
        while True:
            record = self.next_record()
            if record is None:
                return
            yield record

    def assert_empty(self) -> None:
        """Raise if a partial record remains (stream ended mid-frame)."""
        if self._buffer:
            raise RecordSerializationError(
                f"{len(self._buffer)} trailing bytes do not form a record"
            )
