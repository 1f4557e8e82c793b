"""Threaded execution engine for job graphs.

Each vertex runs in its own thread (the paper ran tasks on distinct
VMs; threads preserve the concurrency structure, and network channels
still move bytes through real kernel sockets).  Channels are
instantiated per edge from their :class:`~repro.nephele.channels.ChannelSpec`;
output channels are closed automatically when a task returns, which
propagates end-of-stream downstream, and the input channels of a task
that fails are closed for reading, so its producers fail at once.
After a run, successful or not, every channel is disposed, so none
holds a socket or file object.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

logger = logging.getLogger(__name__)

from .channels import Channel, ChannelType, build_channel
from .graph import JobGraph, Vertex
from .tasks import TaskContext


class JobExecutionError(Exception):
    """One or more tasks failed; carries the per-task errors."""

    def __init__(self, failures: Dict[str, BaseException]) -> None:
        lines = ", ".join(f"{name}: {exc!r}" for name, exc in failures.items())
        super().__init__(f"job failed: {lines}")
        self.failures = failures


@dataclass
class ChannelStats:
    """Per-edge transport statistics after the run."""

    edge: str
    channel_type: ChannelType
    bytes_in: Optional[int] = None
    bytes_out: Optional[int] = None

    @property
    def compression_ratio(self) -> Optional[float]:
        if not self.bytes_in or self.bytes_out is None:
            return None
        return self.bytes_out / self.bytes_in


@dataclass
class JobResult:
    """Outcome of one job execution."""

    job_name: str
    wall_seconds: float
    channel_stats: List[ChannelStats] = field(default_factory=list)


class ExecutionEngine:
    """Run a validated job graph to completion."""

    def run(self, graph: JobGraph, timeout: Optional[float] = None) -> JobResult:
        graph.validate()
        channels: Dict[int, Channel] = {}
        try:
            for edge in graph.edges:
                channels[id(edge)] = build_channel(edge.spec)
            return self._run(graph, channels, timeout)
        finally:
            for channel in channels.values():
                channel.dispose()

    def _run(
        self, graph: JobGraph, channels: Dict[int, Channel], timeout: Optional[float]
    ) -> JobResult:
        order = graph.topological_order()
        failures: Dict[str, BaseException] = {}
        threads: List[threading.Thread] = []

        # File channels decouple producer and consumer: a vertex with a
        # file-channel input may only start once its producers finished.
        # We realise this with per-vertex start events.
        start_events: Dict[str, threading.Event] = {
            v.name: threading.Event() for v in order
        }
        done_events: Dict[str, threading.Event] = {
            v.name: threading.Event() for v in order
        }

        def prerequisites(vertex: Vertex) -> List[Vertex]:
            return [
                e.source
                for e in vertex.inputs
                if e.spec.channel_type is ChannelType.FILE
            ]

        def worker(vertex: Vertex) -> None:
            try:
                for dep in prerequisites(vertex):
                    done_events[dep.name].wait()
                start_events[vertex.name].set()
                ctx = TaskContext(
                    vertex.name,
                    inputs=[channels[id(e)] for e in vertex.inputs],
                    outputs=[channels[id(e)] for e in vertex.outputs],
                )
                vertex.task.run(ctx)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                logger.warning("task %r failed: %r", vertex.name, exc)
                failures[vertex.name] = exc
                # Nothing reads these inputs any more: a producer blocked
                # on one fails now instead of at the job timeout.
                for e in vertex.inputs:
                    channels[id(e)].close_read()
            finally:
                for e in vertex.outputs:
                    try:
                        channels[id(e)].close_write()
                    except BaseException as exc:  # noqa: BLE001
                        failures.setdefault(f"{vertex.name}(close)", exc)
                done_events[vertex.name].set()

        t0 = time.monotonic()
        for vertex in order:
            thread = threading.Thread(
                target=worker, args=(vertex,), name=f"nephele-{vertex.name}", daemon=True
            )
            threads.append(thread)
            thread.start()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in threads:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            thread.join(remaining)
            if thread.is_alive():
                raise JobExecutionError(
                    {
                        **failures,
                        thread.name: TimeoutError(f"task did not finish in {timeout}s"),
                    }
                )
        wall = time.monotonic() - t0

        stats = []
        for edge in graph.edges:
            channel = channels[id(edge)]
            writer = getattr(channel, "block_writer", None)
            stats.append(
                ChannelStats(
                    edge=edge.name,
                    channel_type=edge.spec.channel_type,
                    bytes_in=getattr(writer, "bytes_in", None),
                    bytes_out=getattr(writer, "bytes_out", None),
                )
            )

        if failures:
            raise JobExecutionError(failures)
        return JobResult(job_name=graph.name, wall_seconds=wall, channel_stats=stats)


def run_job(graph: JobGraph, timeout: Optional[float] = 120.0) -> JobResult:
    """Convenience wrapper: execute ``graph`` with the default engine."""
    return ExecutionEngine().run(graph, timeout=timeout)
