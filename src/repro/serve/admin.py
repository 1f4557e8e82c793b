"""Embedded admin/observability HTTP endpoint for the serve daemon.

:class:`AdminServer` wraps a running
:class:`~repro.serve.server.TransferServer` with a tiny stdlib
``http.server`` endpoint on a *separate* port, so operators can probe a
live daemon without speaking the block protocol:

* ``GET /metrics`` — Prometheus text exposition: every metric in the
  attached :class:`~repro.telemetry.metrics.MetricsRegistry` (when one
  is attached), plus server lifetime counters and one labelled gauge
  set per open flow (app-byte rate, observed ratio, level, worker
  weight, queue depths).  Label values go through
  :func:`~repro.telemetry.exporters.prom_label_escape`, so a hostile
  peer string cannot corrupt the exposition.
* ``GET /healthz`` — readiness/liveness JSON; HTTP 200 while the loop
  is live and accepting, 503 once draining or stopped.  The body
  carries the suppressed internal-error tallies (see
  ``TransferServer._internal_error``).
* ``GET /flows`` — JSON snapshot of every flow's state machine and its
  controller's last decision.
* ``POST /reload`` — hot config reload: a JSON body of reloadable keys
  is validated and handed to ``TransferServer.request_reload``; an
  empty body re-reads the daemon's config file when one was given
  (``config_source``).  400 on invalid input, nothing applied.

The endpoint runs request handlers on daemon threads
(``ThreadingHTTPServer``), and everything it reads from the transfer
server is a snapshot-style accessor designed for cross-thread reads —
a scrape never blocks the event loop.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional

from ..telemetry.exporters import (
    PrometheusTextExporter,
    prom_label_escape,
    prom_number,
)
from ..telemetry.metrics import MetricsRegistry

__all__ = ["AdminServer"]

logger = logging.getLogger("repro.serve.admin")

#: (metric suffix, flow-status key, help) for the per-flow gauge set.
FLOW_GAUGES = (
    ("flow_app_rate_bytes_per_second", "app_rate", "decoded app-byte rate"),
    ("flow_observed_ratio", "observed_ratio", "wire/app ratio, last window"),
    ("flow_level", "level", "current echo re-encode level"),
    ("flow_worker_weight", "worker_weight", "fleet codec share"),
    ("flow_decode_in_flight", "decode_in_flight", "decode jobs in flight"),
    ("flow_encode_in_flight", "encode_in_flight", "encode jobs in flight"),
    ("flow_write_queue_bytes", "write_queue_bytes", "bytes queued to send"),
)


class AdminServer:
    """Admin HTTP endpoint bound to one :class:`TransferServer`.

    Usage::

        admin = AdminServer(server, port=9100, registry=session.registry)
        admin.start()
        ...
        admin.close()

    ``registry`` is optional: without one, ``/metrics`` still exposes
    the server- and flow-level series derived from live state.
    ``config_source`` (a callable returning a change dict) backs the
    empty-body ``POST /reload`` — typically a closure re-reading the
    daemon's ``--config`` file.
    """

    def __init__(
        self,
        server,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        config_source: Optional[Callable[[], Dict[str, object]]] = None,
    ) -> None:
        self._server = server
        self.registry = registry
        self._config_source = config_source
        admin = self

        class Handler(BaseHTTPRequestHandler):
            # One daemon, one admin endpoint: close over the AdminServer
            # instead of threading state through ThreadingHTTPServer.
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                admin._get(self)

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                admin._post(self)

            def log_message(self, format: str, *args) -> None:
                logger.debug("%s %s", self.address_string(), format % args)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.address = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------

    def start(self) -> "AdminServer":
        if self._thread is not None:
            raise RuntimeError("admin server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-admin",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "AdminServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- rendering ---------------------------------------------------

    def render_metrics(self) -> str:
        """The full ``/metrics`` payload (exposition text format)."""
        parts: List[str] = []
        if self.registry is not None:
            parts.append(PrometheusTextExporter(self.registry).render())
        parts.append(self._render_server_metrics())
        parts.append(self._render_flow_metrics())
        return "".join(part for part in parts if part)

    def _render_server_metrics(self) -> str:
        status = self._server.status()
        lines: List[str] = []

        def counter(name: str, value) -> None:
            lines.append(f"# TYPE repro_serve_{name} counter")
            lines.append(f"repro_serve_{name} {prom_number(value)}")

        def gauge(name: str, value) -> None:
            lines.append(f"# TYPE repro_serve_{name} gauge")
            lines.append(f"repro_serve_{name} {prom_number(value)}")

        gauge("up", 0.0 if status["closed"] else 1.0)
        gauge("uptime_seconds", status["uptime_seconds"])
        gauge("draining", 1.0 if status["draining"] else 0.0)
        gauge("active_flows", status["active_flows"])
        counter("flows_accepted_total", status["flows_accepted"])
        counter("flows_rejected_total", status["flows_rejected"])
        counter("flows_completed_total", status["flows_completed"])
        counter("flows_failed_total", status["flows_failed"])
        counter("reloads_total", status["reloads"])
        counter("internal_errors_total", status["internal_errors"])
        sites: Dict[str, int] = status["internal_error_sites"]  # type: ignore[assignment]
        if sites:
            lines.append("# TYPE repro_serve_internal_errors counter")
            for site, count in sorted(sites.items()):
                lines.append(
                    f'repro_serve_internal_errors{{site="{prom_label_escape(site)}"}}'
                    f" {prom_number(count)}"
                )
        codec: Dict[str, object] = status["codec"]  # type: ignore[assignment]
        gauge("codec_queue_depth", codec["queued"])
        gauge("codec_workers", codec["workers"])
        counter("codec_jobs_submitted_total", codec["jobs_submitted"])
        counter("codec_jobs_completed_total", codec["jobs_completed"])
        counter("codec_job_failures_total", codec["job_failures"])
        return "\n".join(lines) + "\n"

    def _render_flow_metrics(self) -> str:
        flows = self._server.flows_snapshot()
        if not flows:
            return ""
        lines: List[str] = []
        for suffix, key, help_text in FLOW_GAUGES:
            lines.append(f"# HELP repro_serve_{suffix} {help_text}")
            lines.append(f"# TYPE repro_serve_{suffix} gauge")
            for flow in flows:
                value = flow.get(key)
                if value is None:
                    continue  # e.g. no ratio window closed yet
                labels = (
                    f'flow_id="{flow["flow_id"]}"'
                    f',peer="{prom_label_escape(flow["peer"])}"'
                    f',mode="{prom_label_escape(flow["mode"])}"'
                )
                lines.append(
                    f"repro_serve_{suffix}{{{labels}}} {prom_number(value)}"
                )
        return "\n".join(lines) + "\n"

    # -- request handling (admin endpoint threads) -------------------

    def _get(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.render_metrics().encode("utf-8")
            self._respond(
                request, 200, body, "text/plain; version=0.0.4; charset=utf-8"
            )
        elif path == "/healthz":
            ready, detail = self._server.healthz()
            self._respond_json(request, 200 if ready else 503, detail)
        elif path == "/flows":
            flows = self._server.flows_snapshot()
            self._respond_json(request, 200, {"count": len(flows), "flows": flows})
        elif path in ("/", "/status"):
            self._respond_json(request, 200, self._server.status())
        else:
            self._respond_json(request, 404, {"error": f"no such path {path!r}"})

    def _post(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        if path != "/reload":
            self._respond_json(request, 404, {"error": f"no such path {path!r}"})
            return
        length = int(request.headers.get("Content-Length") or 0)
        raw = request.rfile.read(length) if length else b""
        try:
            if raw.strip():
                changes = json.loads(raw)
                if not isinstance(changes, dict):
                    raise ValueError("reload body must be a JSON object")
            elif self._config_source is not None:
                changes = self._config_source()
            else:
                raise ValueError(
                    "empty reload body and no config file to re-read"
                )
            normalized = self._server.request_reload(changes)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            self._respond_json(request, 400, {"ok": False, "error": str(exc)})
            return
        self._respond_json(request, 200, {"ok": True, "queued": normalized})

    def _respond_json(
        self, request: BaseHTTPRequestHandler, code: int, payload: dict
    ) -> None:
        body = json.dumps(payload, indent=2, default=str).encode("utf-8")
        self._respond(request, code, body, "application/json")

    def _respond(
        self,
        request: BaseHTTPRequestHandler,
        code: int,
        body: bytes,
        content_type: str,
    ) -> None:
        try:
            request.send_response(code)
            request.send_header("Content-Type", content_type)
            request.send_header("Content-Length", str(len(body)))
            request.end_headers()
            request.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # scraper went away mid-response; nothing to salvage
