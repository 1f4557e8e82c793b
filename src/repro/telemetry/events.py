"""Typed telemetry events and the synchronous event bus.

The bus is the single funnel every instrumented code path publishes
into.  Design constraints (see docs/telemetry.md):

* **Zero cost when idle.**  Emitting sites guard on ``BUS.active`` (a
  plain attribute read) and construct the event object only inside the
  guard, so a run with no subscribers allocates nothing per event.
  ``EventBus.published`` counts constructed-and-delivered events, which
  is how tests assert the fast path really was taken.
* **Synchronous, ordered delivery.**  ``publish`` invokes subscribers
  in registration order before it returns; events arrive in exactly
  the order the instrumented code emitted them.  There is no queue and
  no thread — an exporter that needs buffering does its own.
* **One pluggable clock.**  ``EventBus.clock`` defaults to
  ``time.perf_counter``; the simulator rebinds it to virtual time (via
  :meth:`repro.sim.engine.Environment.bind_telemetry`) so simulated
  and real runs produce traces with one schema and comparable
  timestamps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple, Type

__all__ = [
    "TelemetryEvent",
    "EpochClosed",
    "LevelSwitched",
    "BlockCompressed",
    "TransferProgress",
    "PipelineQueueDepth",
    "BufferPoolStats",
    "BackoffUpdated",
    "FaultInjected",
    "BlockSkipped",
    "FlowAccepted",
    "FlowClosed",
    "FlowRejected",
    "FlowRates",
    "FleetRebalanced",
    "ServeInternalError",
    "ConfigReloaded",
    "SpanClosed",
    "EventBus",
    "BUS",
    "get_bus",
    "enabled",
]


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """Base class: every event carries a clock timestamp ``ts``."""

    ts: float


@dataclass(frozen=True, slots=True)
class EpochClosed(TelemetryEvent):
    """A controller/scheme epoch ended and a decision was taken.

    Emitted by :class:`repro.core.controller.AdaptiveController` on the
    real I/O path (``source="controller"``) and by
    :class:`repro.sim.transfer.TransferSim` in the simulator
    (``source="sim"``) — same schema, different clock domain.
    """

    source: str
    epoch: int
    start: float
    end: float
    app_bytes: float
    app_rate: float
    level: int


@dataclass(frozen=True, slots=True)
class LevelSwitched(TelemetryEvent):
    """The compression level actually changed at an epoch boundary."""

    source: str
    epoch: int
    level_before: int
    level_after: int


@dataclass(frozen=True, slots=True)
class BlockCompressed(TelemetryEvent):
    """One 128 KB-class block went through a codec.

    ``direction`` is ``"compress"`` or ``"decompress"``; ``seconds`` is
    measured with the bus clock (zero under a virtual clock, which is
    fine — the simulator prices codecs analytically, not by running
    them).
    """

    codec: str
    direction: str
    uncompressed_bytes: int
    compressed_bytes: int
    seconds: float


@dataclass(frozen=True, slots=True)
class TransferProgress(TelemetryEvent):
    """Cumulative bytes through a transport (stream, socket, channel)."""

    source: str
    bytes_in: int
    bytes_out: int
    ratio: float
    done: bool = False


@dataclass(frozen=True, slots=True)
class PipelineQueueDepth(TelemetryEvent):
    """Parallel block-encoder queue state, sampled at submission time.

    ``depth`` is the number of blocks waiting for a worker; ``in_flight``
    counts everything submitted but not yet framed to the sink (queued +
    compressing + completed-but-awaiting-in-order-emission).
    """

    source: str
    depth: int
    in_flight: int
    workers: int


@dataclass(frozen=True, slots=True)
class BufferPoolStats(TelemetryEvent):
    """Counter snapshot of a :class:`~repro.core.buffers.BufferPool`.

    Published once per pipeline lifetime (at close) by the pipelines
    that own a pool — the pool itself never touches the bus, keeping
    ``acquire``/``release`` branch-free on the hot path.
    """

    source: str
    hits: int
    misses: int
    oversize: int
    free_slabs: int


@dataclass(frozen=True, slots=True)
class BackoffUpdated(TelemetryEvent):
    """Algorithm 1 rewarded or punished a level's backoff exponent."""

    level: int
    exponent: int
    action: str  # "reward" | "punish"


@dataclass(frozen=True, slots=True)
class FaultInjected(TelemetryEvent):
    """A fault-injecting stream wrapper fired one planned fault.

    Emitted by :mod:`repro.io.faults` wrappers; ``side`` is
    ``"write"`` or ``"read"``, ``kind`` names the fault
    (``"bitflip"``/``"truncate"``/``"stall"``/``"reset"``), ``offset``
    is the absolute stream byte offset the fault was anchored to.
    """

    source: str
    side: str
    kind: str
    offset: int


@dataclass(frozen=True, slots=True)
class BlockSkipped(TelemetryEvent):
    """Resync-mode block decoding gave up on one damaged region.

    Emitted by :class:`repro.core.recovery.ResyncBlockReader` once per
    contiguous run of undecodable bytes; ``bytes_skipped`` is that
    region's size and the ``total_*`` fields are the reader's running
    counters after the skip.
    """

    source: str
    bytes_skipped: int
    total_blocks_skipped: int
    total_bytes_skipped: int


@dataclass(frozen=True, slots=True)
class FlowAccepted(TelemetryEvent):
    """The transfer service admitted one client flow.

    Emitted by :class:`repro.serve.TransferServer` when a connection
    passes admission control; ``flow_id`` is unique for the daemon's
    lifetime and ``active_flows`` counts flows open *after* this one.
    """

    source: str
    flow_id: int
    peer: str
    mode: str
    active_flows: int


@dataclass(frozen=True, slots=True)
class FlowClosed(TelemetryEvent):
    """One admitted flow finished (cleanly or not).

    ``ok`` is False for protocol errors, codec failures and drain
    deadline kills; ``reason`` then names the cause.  ``app_bytes``
    counts decoded plaintext, ``bytes_in``/``bytes_out`` the wire bytes
    each way, so per-flow rates and achieved compression ratios can be
    derived without extra events.
    """

    source: str
    flow_id: int
    mode: str
    ok: bool
    reason: str
    bytes_in: int
    bytes_out: int
    app_bytes: int
    blocks_in: int
    blocks_out: int
    seconds: float
    active_flows: int


@dataclass(frozen=True, slots=True)
class FlowRejected(TelemetryEvent):
    """Admission control turned a connection away.

    ``reason`` is ``"max-flows"`` for capacity rejections and
    ``"draining"`` once shutdown has begun; ``active_flows`` is the
    load that triggered the rejection.
    """

    source: str
    reason: str
    active_flows: int


@dataclass(frozen=True, slots=True)
class FlowRates(TelemetryEvent):
    """Periodic per-flow rate sample from a live transfer service.

    Emitted by :class:`repro.serve.TransferServer` once per poll
    interval per open flow (only while the bus is active), and by the
    simulator's fleet harness with ``source="sim"``.  ``app_rate`` is
    the decoded-plaintext rate since the previous sample;
    ``app_bytes`` is the flow's *cumulative* plaintext total;
    ``observed_ratio`` is wire/app bytes over the same window (None
    until the window moved data).  This is the fleet controller's
    primary observation stream.
    """

    source: str
    flow_id: int
    level: int
    app_rate: float
    app_bytes: float
    observed_ratio: Optional[float]
    worker_weight: float = 1.0


@dataclass(frozen=True, slots=True)
class FleetRebalanced(TelemetryEvent):
    """A fleet controller ran its allocation policy over live flows.

    ``flows`` counts the flows covered by the pass, ``pinned`` how many
    received an explicit level pin, ``reweighted`` how many got a codec
    worker share other than 1.0.
    """

    source: str
    policy: str
    flows: int
    pinned: int
    reweighted: int


@dataclass(frozen=True, slots=True)
class ServeInternalError(TelemetryEvent):
    """The serve daemon suppressed an exception on a best-effort path.

    Teardown and waker paths must not let one socket's failure take the
    event loop down, so they swallow ``OSError``-class exceptions — but
    a swallow that leaves no trace hides real trouble (fd exhaustion,
    a dying NIC) from operators.  Every such site now publishes one of
    these events and bumps the server's ``internal_errors`` counter,
    which ``/healthz`` surfaces.  ``site`` names the code path (e.g.
    ``"waker-send"``, ``"flow-close"``), ``error`` is ``repr(exc)``.
    """

    source: str
    site: str
    error: str


@dataclass(frozen=True, slots=True)
class ConfigReloaded(TelemetryEvent):
    """A live daemon applied a hot configuration reload.

    Emitted by :class:`repro.serve.TransferServer` after a SIGHUP or
    ``POST /reload`` took effect on the loop thread.  ``changed`` names
    the keys that actually changed, ``flows_updated`` counts live flows
    whose level/scheme was retuned in place (no connection dropped).
    """

    source: str
    changed: Tuple[str, ...]
    flows_updated: int
    reloads: int


@dataclass(frozen=True, slots=True)
class SpanClosed(TelemetryEvent):
    """A tracing span (``with span(...)``) exited."""

    name: str
    start: float
    end: float
    depth: int
    tags: Tuple[Tuple[str, Any], ...] = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start


#: All event classes, for exporters and the report renderer.
EVENT_TYPES: Tuple[Type[TelemetryEvent], ...] = (
    EpochClosed,
    LevelSwitched,
    BlockCompressed,
    TransferProgress,
    PipelineQueueDepth,
    BufferPoolStats,
    BackoffUpdated,
    FaultInjected,
    BlockSkipped,
    FlowAccepted,
    FlowClosed,
    FlowRejected,
    FlowRates,
    FleetRebalanced,
    ServeInternalError,
    ConfigReloaded,
    SpanClosed,
)

Subscriber = Callable[[TelemetryEvent], None]


class EventBus:
    """Synchronous pub/sub hub with a registration-order guarantee."""

    __slots__ = ("_subscribers", "active", "published", "clock")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._subscribers: List[Tuple[Optional[type], Subscriber]] = []
        #: The module-level "telemetry enabled" flag: True iff at least
        #: one subscriber is attached.  Hot paths read this attribute
        #: and skip event construction entirely when it is False.
        self.active = False
        #: Events delivered since construction/reset (the zero-subscriber
        #: fast-path assertion counter).
        self.published = 0
        self.clock = clock

    def now(self) -> float:
        """Current time on the bus clock (wall or virtual)."""
        return self.clock()

    def subscribe(
        self,
        fn: Subscriber,
        event_type: Optional[type] = None,
    ) -> Tuple[Optional[type], Subscriber]:
        """Register ``fn`` for all events (or one ``event_type``).

        Returns an opaque handle for :meth:`unsubscribe`.
        """
        handle = (event_type, fn)
        self._subscribers.append(handle)
        self.active = True
        return handle

    def unsubscribe(self, handle: Tuple[Optional[type], Subscriber]) -> None:
        try:
            self._subscribers.remove(handle)
        except ValueError:
            pass
        self.active = bool(self._subscribers)

    def clear(self) -> None:
        """Drop all subscribers and zero the delivery counter."""
        self._subscribers.clear()
        self.active = False
        self.published = 0

    def publish(self, event: TelemetryEvent) -> None:
        """Deliver ``event`` to subscribers, in registration order."""
        self.published += 1
        for event_type, fn in self._subscribers:
            if event_type is None or isinstance(event, event_type):
                fn(event)


#: The process-wide default bus all built-in hooks publish to.
BUS = EventBus()


def get_bus() -> EventBus:
    """The process-wide default bus."""
    return BUS


def enabled() -> bool:
    """Is any subscriber attached to the default bus?"""
    return BUS.active
