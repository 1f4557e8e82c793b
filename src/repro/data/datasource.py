"""Data sources that feed the sender side of transfers.

The paper's sender task "repeatedly wrote the respective test files ...
to the network channel until a total data volume of 50 GB was generated"
(Section IV-A); Figure 6 additionally switches between two files every
10 GB.  These classes model exactly those producers, for both the real
I/O path (they emit bytes) and the simulator (they also expose the
compressibility class of the bytes they would emit, so the simulator's
codec model can price them without materializing 50 GB).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .corpus import Compressibility, SyntheticCorpus


class DataSource(abc.ABC):
    """A bounded byte producer."""

    @abc.abstractmethod
    def read(self, n: int) -> bytes:
        """Return up to ``n`` bytes; empty bytes means exhausted."""

    @property
    @abc.abstractmethod
    def total_bytes(self) -> int:
        """Total number of bytes this source will ever produce."""

    @property
    @abc.abstractmethod
    def bytes_emitted(self) -> int:
        """Bytes produced so far."""

    @abc.abstractmethod
    def class_at(self, offset: int) -> Compressibility:
        """Compressibility class of the byte at ``offset``.

        Lets the simulator price compression without generating data.
        """

    @property
    def exhausted(self) -> bool:
        return self.bytes_emitted >= self.total_bytes

    def skip(self, n: int) -> int:
        """Advance by up to ``n`` bytes without materializing them.

        Used by the simulator, which prices data by compressibility
        class instead of compressing actual bytes.  Returns the number
        of bytes skipped.  The default implementation reads and
        discards; concrete sources override with O(1) versions.
        """
        return len(self.read(n))


class RepeatingSource(DataSource):
    """Repeat one payload until ``total_bytes`` have been produced."""

    def __init__(
        self,
        payload: bytes,
        total_bytes: int,
        compressibility: Compressibility,
    ) -> None:
        if not payload:
            raise ValueError("payload must be non-empty")
        if total_bytes < 0:
            raise ValueError("total_bytes must be >= 0")
        self._payload: Optional[bytes] = payload
        #: Where a lazy payload comes from (:meth:`from_corpus`).
        self._corpus: Optional[SyntheticCorpus] = None
        self._total = total_bytes
        self._pos = 0
        self._compressibility = compressibility

    @classmethod
    def from_corpus(
        cls,
        compressibility: Compressibility,
        total_bytes: int,
        corpus: Optional[SyntheticCorpus] = None,
    ) -> "RepeatingSource":
        """Repeat ``corpus``'s payload of one class (built on first read).

        Until :meth:`read` the source holds only a class, a length and
        the corpus: the simulator prices data with :meth:`skip` and
        :meth:`class_at`, so a simulated source never generates bytes.
        """
        source = cls(b"\0", total_bytes, compressibility)  # validates the length
        source._payload, source._corpus = None, corpus or SyntheticCorpus()
        return source

    @property
    def total_bytes(self) -> int:
        return self._total

    @property
    def bytes_emitted(self) -> int:
        return self._pos

    def class_at(self, offset: int) -> Compressibility:
        return self._compressibility

    def skip(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be >= 0")
        n = min(n, self._total - self._pos)
        self._pos += n
        return n

    def read(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("n must be >= 0")
        n = min(n, self._total - self._pos)
        if n <= 0:
            return b""
        payload = self._payload
        if payload is None:
            payload = self._payload = self._corpus.payload(self._compressibility)
        out = bytearray()
        plen = len(payload)
        while len(out) < n:
            start = self._pos % plen
            take = min(plen - start, n - len(out))
            out.extend(payload[start : start + take])
            self._pos += take
        return bytes(out)


@dataclass(frozen=True)
class Segment:
    """A contiguous stretch of one compressibility class."""

    compressibility: Compressibility
    length: int


class SwitchingSource(DataSource):
    """Concatenate segments of different compressibility classes.

    Figure 6's workload is ``SwitchingSource.alternating(HIGH, LOW,
    segment=10 GB, total=50 GB)``.
    """

    def __init__(
        self,
        segments: Sequence[Segment],
        corpus: Optional[SyntheticCorpus] = None,
    ) -> None:
        if not segments:
            raise ValueError("need at least one segment")
        if any(s.length <= 0 for s in segments):
            raise ValueError("segment lengths must be positive")
        self._segments = list(segments)
        self._corpus = corpus or SyntheticCorpus()
        self._boundaries: List[int] = []
        acc = 0
        for seg in self._segments:
            acc += seg.length
            self._boundaries.append(acc)
        self._total = acc
        self._pos = 0

    @classmethod
    def alternating(
        cls,
        first: Compressibility,
        second: Compressibility,
        segment_bytes: int,
        total_bytes: int,
        corpus: Optional[SyntheticCorpus] = None,
    ) -> "SwitchingSource":
        segments: List[Segment] = []
        produced = 0
        toggle = 0
        while produced < total_bytes:
            length = min(segment_bytes, total_bytes - produced)
            segments.append(Segment((first, second)[toggle % 2], length))
            produced += length
            toggle += 1
        return cls(segments, corpus)

    @property
    def total_bytes(self) -> int:
        return self._total

    @property
    def bytes_emitted(self) -> int:
        return self._pos

    def _segment_index(self, offset: int) -> int:
        for i, bound in enumerate(self._boundaries):
            if offset < bound:
                return i
        return len(self._segments) - 1

    def class_at(self, offset: int) -> Compressibility:
        if offset < 0:
            raise ValueError("offset must be >= 0")
        return self._segments[self._segment_index(offset)].compressibility

    def skip(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be >= 0")
        n = min(n, self._total - self._pos)
        self._pos += n
        return n

    def read(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("n must be >= 0")
        out = bytearray()
        while len(out) < n and self._pos < self._total:
            idx = self._segment_index(self._pos)
            seg = self._segments[idx]
            seg_start = self._boundaries[idx] - seg.length
            within = self._pos - seg_start
            take = min(n - len(out), seg.length - within)
            payload = self._corpus.payload(seg.compressibility)
            plen = len(payload)
            taken = 0
            while taken < take:
                start = (within + taken) % plen
                chunk = min(plen - start, take - taken)
                out.extend(payload[start : start + chunk])
                taken += chunk
            self._pos += take
        return bytes(out)
