"""Exporters: JSONL event traces, Prometheus text, in-memory capture.

``JsonlExporter`` and ``InMemoryExporter`` subscribe to an event bus;
``PrometheusTextExporter`` renders a metrics registry on demand.  All
numeric output is sanitised so a trace is always *valid* JSON —
``inf``/``nan`` become ``null`` (the paper-adjacent lesson from
``codecs/stats.py``: a clock tie must never leak ``Infinity`` into a
serialised artifact).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from typing import IO, Any, Dict, List, Optional, Union

from .events import BUS, EventBus, TelemetryEvent
from .metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "event_to_dict",
    "InMemoryExporter",
    "JsonlExporter",
    "PrometheusTextExporter",
    "prom_label_escape",
    "prom_metric_name",
    "prom_number",
]


def _sanitize(value: Any) -> Any:
    """Make a value JSON-safe: non-finite floats become ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def event_to_dict(event: TelemetryEvent) -> Dict[str, Any]:
    """Event → plain dict with a ``type`` discriminator field."""
    out: Dict[str, Any] = {"type": type(event).__name__}
    for field in dataclasses.fields(event):
        out[field.name] = _sanitize(getattr(event, field.name))
    if "tags" in out and out["tags"]:
        out["tags"] = {str(k): _sanitize(v) for k, v in out["tags"]}
    return out


class _BusExporter:
    """Common attach/detach plumbing for event-consuming exporters."""

    def __init__(self) -> None:
        self._bus: Optional[EventBus] = None
        self._handle = None

    def attach(self, bus: Optional[EventBus] = None) -> "_BusExporter":
        if self._bus is not None:
            raise RuntimeError("exporter already attached")
        self._bus = bus if bus is not None else BUS
        self._handle = self._bus.subscribe(self.handle)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self._handle)
            self._bus = None
            self._handle = None

    def handle(self, event: TelemetryEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def __enter__(self) -> "_BusExporter":
        return self.attach() if self._bus is None else self

    def __exit__(self, *exc_info) -> None:
        self.detach()


class InMemoryExporter(_BusExporter):
    """Collect events into a list — the test exporter."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[TelemetryEvent] = []

    def handle(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def of_type(self, event_type: type) -> List[TelemetryEvent]:
        return [e for e in self.events if isinstance(e, event_type)]

    def clear(self) -> None:
        self.events.clear()


class JsonlExporter(_BusExporter):
    """Write one JSON object per event to a file or file-like object.

    Flushing is *bounded*, not per-event and not only-at-close: the
    buffer is pushed to the OS every ``flush_every_events`` events or
    whenever ``flush_every_seconds`` have elapsed since the last flush,
    whichever comes first.  A daemon that crashes therefore loses at
    most one small tail of the trace — and the tail is exactly what a
    postmortem needs.  Set ``flush_every_events=1`` for write-through,
    or ``0`` to disable count-based flushing (time-based still applies).
    """

    def __init__(
        self,
        target: Union[str, IO[str]],
        *,
        flush_every_events: int = 64,
        flush_every_seconds: float = 1.0,
    ) -> None:
        super().__init__()
        if flush_every_events < 0:
            raise ValueError("flush_every_events must be >= 0")
        if flush_every_seconds <= 0:
            raise ValueError("flush_every_seconds must be positive")
        if isinstance(target, str):
            self._fp: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_fp = True
        else:
            self._fp = target
            self._owns_fp = False
        self.flush_every_events = flush_every_events
        self.flush_every_seconds = flush_every_seconds
        self.events_written = 0
        self.flushes = 0
        self._unflushed = 0
        self._last_flush = time.monotonic()

    def handle(self, event: TelemetryEvent) -> None:
        line = json.dumps(
            event_to_dict(event), separators=(",", ":"), allow_nan=False
        )
        self._fp.write(line + "\n")
        self.events_written += 1
        self._unflushed += 1
        now = time.monotonic()
        if (
            self.flush_every_events and self._unflushed >= self.flush_every_events
        ) or now - self._last_flush >= self.flush_every_seconds:
            self.flush(now)

    def flush(self, now: Optional[float] = None) -> None:
        """Push buffered lines to the OS (crash-tail bound)."""
        self._fp.flush()
        self.flushes += 1
        self._unflushed = 0
        self._last_flush = now if now is not None else time.monotonic()

    def close(self) -> None:
        self.detach()
        self._fp.flush()
        if self._owns_fp:
            self._fp.close()

    def __exit__(self, *exc_info) -> None:
        self.close()


def prom_metric_name(name: str) -> str:
    """Metric name → Prometheus-legal name.

    Dots/dashes become underscores and a leading digit gets an
    underscore prefix — the exposition format requires names to match
    ``[a-zA-Z_:][a-zA-Z0-9_:]*``, and a registry name like
    ``"4k.blocks"`` must not produce output a scraper rejects.
    """
    sanitized = "".join(c if (c.isalnum() or c == "_") else "_" for c in name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def prom_number(value: float) -> str:
    """Render a sample value per the exposition format.

    Non-finite values have reserved spellings — ``+Inf``/``-Inf``/
    ``NaN`` — that a Prometheus parser accepts; ``repr(inf)`` (the old
    behaviour for NaN's cousin cases) does not.
    """
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def prom_label_escape(value: object) -> str:
    """Escape a label value per the exposition format.

    Inside ``label="..."`` a backslash, a double quote and a newline
    must be written ``\\\\``, ``\\"`` and ``\\n`` respectively — a peer
    string like ``"bad\\nhost"`` must never split a sample line in two.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class PrometheusTextExporter:
    """Render a :class:`MetricsRegistry` in Prometheus text format.

    Pull-style: call :meth:`render` whenever a scrape (or a test)
    wants the current state; nothing subscribes to the bus.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else REGISTRY

    def render(self) -> str:
        lines: List[str] = []
        for name, metric in self.registry:
            pname = prom_metric_name(name)
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {pname} counter")
                lines.append(f"{pname} {prom_number(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {prom_number(metric.value)}")
            elif isinstance(metric, Histogram):
                lines.append(f"# TYPE {pname} histogram")
                cumulative = 0
                for bound, count in zip(metric.bounds, metric.counts):
                    cumulative += count
                    lines.append(
                        f'{pname}_bucket{{le="{prom_number(bound)}"}} {cumulative}'
                    )
                lines.append(f'{pname}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{pname}_sum {prom_number(metric.sum)}")
                lines.append(f"{pname}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")
