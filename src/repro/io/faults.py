"""Deterministic fault injection for byte streams.

The paper's premise is a *hostile* shared-I/O environment: EC2-grade
links fluctuate between line rate and zero within tens of milliseconds
(Section II-B), streams stall, and connections die mid-transfer.  This
module turns those anomalies into a deterministic, seeded test
substrate: wrap any file-like writer or reader and the wrapper fires a
pre-computed :class:`FaultPlan` at exact absolute byte offsets —
bit-flips, mid-frame truncation, write/read stalls, connection resets —
identically on every run with the same seed.

The wrappers speak the plain file-object protocol (``write``/``flush``/
``close`` on one side, ``read``/``readinto`` on the other), so they
compose with everything the real path already uses: socket
``makefile`` objects, throttled writers and plain files.  Each fired
fault publishes a
:class:`~repro.telemetry.events.FaultInjected` event (zero cost while
the bus is idle, like every other hook).

Fault semantics (all anchored to absolute stream offsets):

* **bit-flip** — XOR one mask into the byte at the offset; the stream
  keeps flowing.  Exercises CRC detection and resync.
* **truncate** — bytes before the offset pass through, everything from
  the offset on is silently discarded (writer) or reads EOF (reader),
  like a peer that vanished after ACKing half a frame.
* **stall** — sleep ``seconds`` before the byte at the offset moves,
  emulating the paper's Markov off-periods.  The sleep function is
  injectable so tests can count stalls without waiting them out.
* **reset** — raise :class:`ConnectionResetError` when the offset is
  reached, after passing the preceding bytes through.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, List, Optional, Tuple

from ..telemetry.events import BUS, FaultInjected

__all__ = [
    "BitFlip",
    "Truncate",
    "Stall",
    "Reset",
    "FaultPlan",
    "FaultyWriter",
    "FaultyReader",
]


@dataclass(frozen=True)
class BitFlip:
    """Flip ``mask`` bits of the byte at absolute ``offset``."""

    offset: int
    mask: int = 0x01

    kind = "bitflip"


@dataclass(frozen=True)
class Truncate:
    """Silently drop every byte from ``offset`` on (EOF for readers)."""

    offset: int

    kind = "truncate"


@dataclass(frozen=True)
class Stall:
    """Sleep ``seconds`` before the byte at ``offset`` moves."""

    offset: int
    seconds: float = 0.05

    kind = "stall"


@dataclass(frozen=True)
class Reset:
    """Raise :class:`ConnectionResetError` once ``offset`` is reached."""

    offset: int

    kind = "reset"


Fault = object  # BitFlip | Truncate | Stall | Reset (py3.10-safe alias)


class FaultPlan:
    """An ordered, immutable schedule of faults by absolute offset.

    Plans are data, not behaviour: the same plan can be applied to a
    write side and to a read side, or replayed across runs.  Build one
    explicitly from fault instances or derive one deterministically
    from a seed with :meth:`seeded`.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self.faults: Tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: (f.offset, f.kind))
        )
        for fault in self.faults:
            if fault.offset < 0:
                raise ValueError(f"fault offset must be >= 0, got {fault.offset}")

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @classmethod
    def seeded(
        cls,
        seed: int,
        total_bytes: int,
        *,
        bitflips: int = 0,
        stalls: int = 0,
        stall_seconds: float = 0.05,
        truncate: bool = False,
        reset: bool = False,
        first_offset: int = 0,
    ) -> "FaultPlan":
        """Derive a reproducible plan from ``seed``.

        ``bitflips``/``stalls`` faults are placed uniformly at random in
        ``[first_offset, total_bytes)``; ``truncate``/``reset`` (at most
        one each) land in the upper half of that range so some traffic
        always precedes them.  The same (seed, arguments) pair always
        yields the same plan.
        """
        if total_bytes <= first_offset:
            raise ValueError("total_bytes must exceed first_offset")
        rng = random.Random(seed)
        span = (first_offset, total_bytes - 1)
        faults: List[Fault] = []
        for _ in range(bitflips):
            faults.append(
                BitFlip(rng.randint(*span), mask=1 << rng.randint(0, 7))
            )
        for _ in range(stalls):
            faults.append(Stall(rng.randint(*span), seconds=stall_seconds))
        late = ((first_offset + total_bytes) // 2, total_bytes - 1)
        if truncate:
            faults.append(Truncate(rng.randint(*late)))
        if reset:
            faults.append(Reset(rng.randint(*late)))
        return cls(faults)


class _FaultCursor:
    """Shared offset-tracking core of the two wrappers.

    Walks the plan in offset order as bytes move and mutates/cuts the
    in-flight buffer accordingly.  ``side`` labels telemetry events.
    """

    def __init__(
        self,
        plan: FaultPlan,
        side: str,
        *,
        source: str,
        sleep: Callable[[float], None],
    ) -> None:
        self._plan = list(plan)
        self._side = side
        self._source = source
        self._sleep = sleep
        self._next = 0  # index of the next unfired fault
        self.offset = 0  # absolute bytes moved so far
        self.faults_fired = 0
        self.truncated = False

    def _fire(self, fault: Fault) -> None:
        self._next += 1
        self.faults_fired += 1
        if BUS.active:
            BUS.publish(
                FaultInjected(
                    ts=BUS.now(),
                    source=self._source,
                    side=self._side,
                    kind=fault.kind,
                    offset=fault.offset,
                )
            )

    def apply(self, data: bytes) -> bytes:
        """Advance past ``len(data)`` bytes, applying due faults.

        Returns the (possibly mutated or shortened) bytes that should
        actually move.  Raises :class:`ConnectionResetError` for a due
        :class:`Reset` after accounting for the bytes preceding it.
        """
        if self.truncated:
            self.offset += len(data)
            return b""
        buf: Optional[bytearray] = None
        end = self.offset + len(data)
        while self._next < len(self._plan) and self._plan[self._next].offset < end:
            fault = self._plan[self._next]
            rel = fault.offset - self.offset
            if isinstance(fault, BitFlip):
                if buf is None:
                    buf = bytearray(data)
                buf[rel] ^= fault.mask
                self._fire(fault)
            elif isinstance(fault, Stall):
                self._fire(fault)
                self._sleep(fault.seconds)
            elif isinstance(fault, Truncate):
                self._fire(fault)
                self.truncated = True
                self.offset = end
                return bytes(buf[:rel]) if buf is not None else data[:rel]
            elif isinstance(fault, Reset):
                self._fire(fault)
                self.offset = end
                raise ConnectionResetError(
                    f"injected connection reset at byte {fault.offset}"
                )
            else:  # pragma: no cover - plans only hold the four kinds
                raise TypeError(f"unknown fault {fault!r}")
        self.offset = end
        return bytes(buf) if buf is not None else data


class FaultyWriter:
    """File-like write wrapper that fires a :class:`FaultPlan`.

    Wraps any binary writer (socket file, pipe, throttled writer, real
    file).  Offsets count the bytes *written through this wrapper*, so
    a plan positioned on wire-frame offsets behaves identically whether
    the sink is a socket or an in-memory buffer.
    """

    def __init__(
        self,
        sink: BinaryIO,
        plan: FaultPlan,
        *,
        source: str = "faulty-writer",
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._sink = sink
        self._cursor = _FaultCursor(plan, "write", source=source, sleep=sleep)

    @property
    def faults_fired(self) -> int:
        return self._cursor.faults_fired

    @property
    def bytes_seen(self) -> int:
        return self._cursor.offset

    def write(self, data) -> int:
        data = bytes(data)
        out = self._cursor.apply(data)
        if out:
            self._sink.write(out)
        # Report the full length so framing layers never short-write:
        # a truncation fault swallows bytes silently, like a dead peer.
        return len(data)

    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        self._sink.close()


class FaultyReader:
    """File-like read wrapper that fires a :class:`FaultPlan`.

    Offsets count bytes *delivered to the caller*.  Supports both
    ``read`` and ``readinto`` so :class:`~repro.codecs.block.
    BlockReader`'s zero-copy path stays exercised under faults.
    """

    def __init__(
        self,
        source_stream: BinaryIO,
        plan: FaultPlan,
        *,
        source: str = "faulty-reader",
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._stream = source_stream
        self._cursor = _FaultCursor(plan, "read", source=source, sleep=sleep)

    @property
    def faults_fired(self) -> int:
        return self._cursor.faults_fired

    @property
    def bytes_seen(self) -> int:
        return self._cursor.offset

    def read(self, n: int = -1) -> bytes:
        if self._cursor.truncated:
            return b""
        chunk = self._stream.read(n)
        if not chunk:
            return chunk
        return self._cursor.apply(chunk)

    def readinto(self, b) -> int:
        got = self.read(len(memoryview(b)))
        b[: len(got)] = got
        return len(got)

    def close(self) -> None:
        self._stream.close()
