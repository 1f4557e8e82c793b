"""Task programming model.

A task implements :meth:`Task.run` against a :class:`TaskContext`; it
never sees channels, compression, or threads — "the implementation is
completely transparent to the tasks, so there is no modification
required to their program code" (Section III-B).
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator, List, Optional

from ..data.datasource import DataSource
from .channels import Channel


class TaskContext:
    """What a running task can do: read inputs, emit outputs."""

    def __init__(
        self, name: str, inputs: List[Channel], outputs: List[Channel]
    ) -> None:
        self.name = name
        self._inputs = inputs
        self._outputs = outputs

    @property
    def n_inputs(self) -> int:
        return len(self._inputs)

    @property
    def n_outputs(self) -> int:
        return len(self._outputs)

    def read(self, index: int = 0) -> Optional[bytes]:
        """Next record from input ``index``; ``None`` at end-of-stream."""
        return self._inputs[index].read_record()

    def records(self, index: int = 0) -> Iterator[bytes]:
        """Iterate input ``index`` to exhaustion."""
        return iter(self._inputs[index])

    def emit(self, record: bytes, index: int = 0) -> None:
        """Write a record to output ``index``."""
        self._outputs[index].write_record(record)

    def emit_all(self, record: bytes) -> None:
        for channel in self._outputs:
            channel.write_record(record)


class Task(abc.ABC):
    """Base class for all tasks."""

    @abc.abstractmethod
    def run(self, ctx: TaskContext) -> None:
        """Process inputs to outputs.  Channels are closed by the engine."""


class SourceTask(Task):
    """Emit a :class:`~repro.data.datasource.DataSource` as records.

    The paper's sender task: "repeatedly wrote the respective test files
    ... to the network channel until a total data volume of 50 GB was
    generated" — here the repetition lives in the data source.
    """

    def __init__(self, source_factory: Callable[[], DataSource], record_bytes: int = 64 * 1024) -> None:
        if record_bytes <= 0:
            raise ValueError("record_bytes must be positive")
        self._source_factory = source_factory
        self.record_bytes = record_bytes

    def run(self, ctx: TaskContext) -> None:
        source = self._source_factory()
        while True:
            chunk = source.read(self.record_bytes)
            if not chunk:
                return
            ctx.emit_all(chunk)


class CollectTask(Task):
    """Receiver that gathers records (and checks nothing is lost)."""

    def __init__(self, keep_data: bool = False) -> None:
        self.keep_data = keep_data
        self.records_received = 0
        self.bytes_received = 0
        self.collected: List[bytes] = []

    def run(self, ctx: TaskContext) -> None:
        for record in ctx.records():
            self.records_received += 1
            self.bytes_received += len(record)
            if self.keep_data:
                self.collected.append(record)


class MapTask(Task):
    """Apply a pure function record -> record (or None to drop)."""

    def __init__(self, fn: Callable[[bytes], Optional[bytes]]) -> None:
        self.fn = fn

    def run(self, ctx: TaskContext) -> None:
        for record in ctx.records():
            out = self.fn(record)
            if out is not None:
                ctx.emit_all(out)


class FunctionTask(Task):
    """Wrap an arbitrary ``fn(ctx)`` as a task."""

    def __init__(self, fn: Callable[[TaskContext], None]) -> None:
        self.fn = fn

    def run(self, ctx: TaskContext) -> None:
        self.fn(ctx)
