"""Selector-based connection manager multiplexing many adaptive flows.

:class:`TransferServer` is the daemon side of the serve subsystem: one
event-loop thread owns every socket (listener + all accepted flows) via
``selectors.DefaultSelector``, and one shared
:class:`~repro.core.pipeline.CodecThreadPool` plus one shared
:class:`~repro.core.buffers.BufferPool` execute the codec work of *all*
flows.  Accepting the 17th flow therefore costs a socket and a
:class:`~repro.serve.flow.Flow` object — never another thread, which is
what lets one daemon hold the paper's "many concurrent transfers on one
shared bottleneck" scenario without thread-per-transfer explosion.

Responsibilities split cleanly:

* the **flow** (``flow.py``) parses frames, submits codec jobs, and
  reassembles results in order;
* the **server** (this module) decides *who runs when*: admission
  control at accept time (max-flows cap plus shared-queue depth
  backpressure), round-robin write scheduling with a per-turn byte
  quantum so no flow monopolises the loop, selector interest updates
  driven by each flow's ``wants_read``/``wants_write``, and graceful
  drain — stop accepting, finish in-flight flows, then exit (with a
  deadline after which stragglers are force-closed).

Worker threads never touch sockets or the selector; when a codec job
completes they enqueue the flow on a pending list and poke a waker
socketpair, and the loop thread pumps the flow on its next pass.  Every
lifecycle edge publishes telemetry (``FlowAccepted`` / ``FlowClosed`` /
``FlowRejected``) alongside shared-pool counter snapshots
(``PipelineQueueDepth``, ``BufferPoolStats``), all guarded on
``BUS.active`` so an un-instrumented daemon pays nothing.
"""

from __future__ import annotations

import logging
import os
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from itertools import count
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..control import Assignment, FleetController, make_policy
from ..core.buffers import BufferPool
from ..core.levels import PAPER_LEVEL_NAMES, default_level_table
from ..core.pipeline import CodecThreadPool
from ..io.sockets import DEFAULT_BACKLOG, open_listener
from ..telemetry.events import (
    BUS,
    BufferPoolStats,
    ConfigReloaded,
    FlowAccepted,
    FlowClosed,
    FlowRates,
    FlowRejected,
    PipelineQueueDepth,
    ServeInternalError,
)
from .flow import WRITE_QUANTUM, Flow, FlowState
from .protocol import encode_control

__all__ = ["RELOADABLE_KEYS", "ServeConfig", "TransferServer"]

logger = logging.getLogger("repro.serve")

#: Config keys :meth:`TransferServer.request_reload` accepts.
RELOADABLE_KEYS = (
    "level",
    "policy",
    "control_interval",
    "idle_timeout",
    "max_flows",
    "max_queued_jobs",
)

#: Longest the loop blocks in ``select``: how late it notices a drain
#: deadline, an idle timeout or a due rate window.
POLL_INTERVAL = 0.2


def _default_workers() -> int:
    return max(2, min(4, os.cpu_count() or 2))


@dataclass(frozen=True)
class ServeConfig:
    """Settings of a :class:`TransferServer`, checked when built.

    This is the daemon's one validator.  CLI flags and a ``--config``
    file build a ``ServeConfig`` at startup, and a reload
    (``POST /reload``, ``SIGHUP``) is ``dataclasses.replace(config,
    **changes)``, so every source of settings accepts exactly the same
    values; a bad one raises ``ValueError`` before it takes effect.
    Integer fields must be ``int`` (not ``bool``); the float fields are
    normalized to ``float`` and may not be NaN.

    ``max_flows`` and ``max_queued_jobs`` are the two admission knobs:
    the first caps concurrent connections outright, the second rejects
    new flows while the *shared* codec queue is already deeper than the
    given bound (0 disables that check).  The per-flow bounds are
    constants of :mod:`repro.serve.flow`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_flows: int = 64
    backlog: int = DEFAULT_BACKLOG
    codec_workers: int = 0  # 0 → min(4, cpu count), at least 2
    max_queued_jobs: int = 0  # 0 → no queue-depth admission check
    idle_timeout: float = 0.0  # seconds; 0 → never time a flow out
    level: Optional[str] = None  # echo re-encode level name; None → adaptive
    epoch_seconds: float = 0.25  # per-flow adaptive re-decision interval
    policy: Optional[str] = None  # fleet allocation policy; None → per-flow only
    control_interval: float = 1.0  # seconds between fleet policy passes
    trace_dir: Optional[str] = None  # write per-flow replay traces here

    def __post_init__(self) -> None:
        integers = ("port", "max_flows", "backlog", "codec_workers", "max_queued_jobs")
        for name in integers:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("idle_timeout", "epoch_seconds", "control_interval"):
            value = getattr(self, name)
            try:
                number = float(value)
                if number != number:  # NaN passes every bound check below
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a number, got {value!r}") from None
            object.__setattr__(self, name, number)
        if self.max_flows < 1:
            raise ValueError("max_flows must be >= 1")
        if self.max_queued_jobs < 0:
            raise ValueError("max_queued_jobs must be >= 0")
        if self.codec_workers < 0:
            raise ValueError("codec_workers must be >= 0")
        if self.idle_timeout < 0:
            raise ValueError("idle_timeout must be >= 0")
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if self.control_interval <= 0:
            raise ValueError("control_interval must be positive")
        if self.level not in (None, "adaptive"):
            if not isinstance(self.level, str):
                raise ValueError(f"level must be a name or None, got {self.level!r}")
            # The names of default_level_table(), the server's one table.
            if self.level not in PAPER_LEVEL_NAMES:
                raise ValueError(f"unknown level {self.level!r}")
        if self.policy is not None:
            if not isinstance(self.policy, str):
                raise ValueError(f"policy must be a name or None, got {self.policy!r}")
            try:
                make_policy(self.policy)
            except (KeyError, ValueError):
                raise ValueError(f"unknown policy {self.policy!r}") from None


class TransferServer:
    """One event loop serving many concurrent compressed flows.

    Usage::

        server = TransferServer(ServeConfig(port=0))
        server.start()                     # loop runs on its own thread
        host, port = server.address
        ...clients connect...
        server.stop(drain=True, timeout=10.0)

    or run the loop on the calling thread with :meth:`serve_forever`
    (the CLI does, so signal handlers can call :meth:`request_drain`).
    """

    TELEMETRY_SOURCE = "serve"

    #: The daemon runs every flow's codec jobs on one thread pool;
    #: benchmark reports record these next to :attr:`codec_workers`.
    codec_backend = "thread"
    codec_shards = 1

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        codec_pool: Optional[CodecThreadPool] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServeConfig()
        self._levels = default_level_table()
        self._clock = clock
        self._buffer_pool = BufferPool()
        # An injected ``codec_pool`` is the caller's to close.
        self._owns_pool = codec_pool is None
        self._codec_pool = codec_pool or CodecThreadPool(
            self.config.codec_workers or _default_workers(), name="repro-serve-codec"
        )
        self._controller = self._make_controller()

        # Bind in the constructor so tests can read ``address`` (and
        # clients can connect; the backlog holds them) before the loop
        # thread has spun up.
        self._listener = open_listener(
            self.config.host, self.config.port, backlog=self.config.backlog
        )
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()

        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)

        self._flows: Dict[int, Flow] = {}  # flow_id -> Flow
        self._masks: Dict[int, int] = {}  # flow_id -> registered selector mask
        self._announced: set = set()  # flow_ids with FlowAccepted published
        self._flow_ids = count(1)
        self._pending: Deque[Flow] = deque()
        self._pending_lock = threading.Lock()
        self._selector: Optional[selectors.BaseSelector] = None
        self._thread: Optional[threading.Thread] = None
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._stop_now = False
        self._rr = 0
        self._running = threading.Event()
        self._finished = threading.Event()
        self._closed = False

        # Hot-reload queue: any thread enqueues validated change sets
        # via request_reload(); only the loop thread applies them.
        self._reload_lock = threading.Lock()
        self._reload_requests: Deque[Dict[str, object]] = deque()

        # Lifetime counters (loop thread writes, anyone reads).
        self.started_at = self._clock()
        self.flows_accepted = 0
        self.flows_rejected = 0
        self.flows_completed = 0
        self.flows_failed = 0
        #: Suppressed-but-abnormal errors on best-effort paths (see
        #: :meth:`_internal_error`); ``/healthz`` surfaces both.
        self.internal_errors = 0
        self.internal_error_sites: Dict[str, int] = {}
        #: Hot reloads applied so far, and a summary of the last one.
        self.reloads = 0
        self.last_reload: Optional[Dict[str, object]] = None

    # -- shared substrate (exposed for tests and telemetry) ----------

    @property
    def codec_pool(self) -> CodecThreadPool:
        """The one codec pool every flow's jobs run on."""
        return self._codec_pool

    @property
    def codec_workers(self) -> int:
        """Worker threads in the codec pool."""
        return self._codec_pool.workers

    def codec_stats(self) -> dict:
        """The codec pool's counter snapshot."""
        return self._codec_pool.stats()

    @property
    def buffer_pool(self) -> BufferPool:
        """The one slab pool staging every flow's compressed payloads."""
        return self._buffer_pool

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def controller(self) -> Optional[FleetController]:
        """The fleet controller, when a policy is configured."""
        return self._controller

    @property
    def _default_level(self) -> Optional[int]:
        """The configured echo level's index (None: adaptive)."""
        level = self.config.level
        return None if level in (None, "adaptive") else self._levels.index_of(level)

    def _make_controller(self) -> Optional[FleetController]:
        """The fleet controller for the configured policy, if any.

        The loop thread feeds the controller (flow_opened /
        observe_flow / flow_closed), so running a policy does not
        require telemetry; the actuator runs on the loop thread.
        """
        if self.config.policy is None:
            return None
        return FleetController(
            self.config.policy,
            n_levels=len(self._levels),
            actuator=self._apply_assignment,
            control_interval=self.config.control_interval,
            source=f"{self.TELEMETRY_SOURCE}-control",
        )

    # -- lifecycle ---------------------------------------------------

    def start(self) -> "TransferServer":
        """Run the loop on a daemon thread; returns once it is live."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._running.wait(timeout=5.0)
        return self

    def request_drain(self, timeout: Optional[float] = None) -> None:
        """Stop accepting; let in-flight flows finish (signal-safe)."""
        self._draining = True
        if timeout is not None:
            self._drain_deadline = self._clock() + timeout
        self._wake()

    def request_stop(self) -> None:
        """Abandon everything and exit the loop as soon as possible."""
        self._stop_now = True
        self._wake()

    def stop(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down and join the loop thread (started via :meth:`start`)."""
        if drain:
            self.request_drain(timeout)
        else:
            self.request_stop()
        finished = self._finished.wait(
            timeout=None if timeout is None else timeout + 5.0
        )
        if not finished:
            self.request_stop()
            self._finished.wait(timeout=5.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def serve_forever(self) -> None:
        """The event loop; blocks until drained or stopped."""
        sel = selectors.DefaultSelector()
        self._selector = sel
        sel.register(self._listener, selectors.EVENT_READ, "listener")
        sel.register(self._waker_r, selectors.EVENT_READ, "waker")
        listener_open = True
        self._running.set()
        try:
            while True:
                if self._stop_now:
                    break
                if self._draining:
                    if listener_open:
                        sel.unregister(self._listener)
                        self._listener.close()
                        listener_open = False
                    if not self._flows:
                        break
                touched: List[Flow] = []
                writable: List[Flow] = []
                for key, mask in sel.select(POLL_INTERVAL):
                    tag = key.data
                    if tag == "listener":
                        self._accept_ready()
                    elif tag == "waker":
                        self._drain_waker()
                    else:
                        flow: Flow = tag
                        if mask & selectors.EVENT_READ:
                            flow.handle_read()
                            touched.append(flow)
                        if mask & selectors.EVENT_WRITE:
                            writable.append(flow)
                # Round-robin write scheduling: rotate the service order
                # every pass and cap each flow at WRITE_QUANTUM bytes.
                if writable:
                    self._rr = (self._rr + 1) % len(writable)
                    for flow in writable[self._rr :] + writable[: self._rr]:
                        flow.handle_write(WRITE_QUANTUM)
                        touched.append(flow)
                with self._pending_lock:
                    while self._pending:
                        touched.append(self._pending.popleft())
                self._apply_reloads()
                self._advance(touched)
                self._check_timeouts()
                self._rates_pass()
        finally:
            self._running.set()
            try:
                self._teardown(listener_open)
            finally:
                self._finished.set()

    # -- loop internals ----------------------------------------------

    def _accept_ready(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                # A failing accept (EMFILE, dying NIC) must not take the
                # loop down, but it must not vanish either.
                self._internal_error("accept", exc)
                return
            reason = self._admission_reason()
            if reason is not None:
                self._reject(conn, reason)
                continue
            conn.setblocking(False)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError as exc:  # pragma: no cover - platform-dependent
                self._internal_error("accept-setsockopt", exc)
            flow_id = next(self._flow_ids)
            flow = Flow(
                flow_id,
                conn,
                peer=f"{addr[0]}:{addr[1]}" if isinstance(addr, tuple) else str(addr),
                levels=self._levels,
                codec_pool=self._codec_pool,
                buffer_pool=self._buffer_pool,
                notify=self._notify,
                default_level=self._default_level,
                epoch_seconds=self.config.epoch_seconds,
                clock=self._clock,
            )
            self._flows[flow_id] = flow
            self._masks[flow_id] = 0
            self.flows_accepted += 1
            self._update_interest(flow)

    def _admission_reason(self) -> Optional[str]:
        if self._draining:
            return "draining"
        if len(self._flows) >= self.config.max_flows:
            return "max-flows"
        limit = self.config.max_queued_jobs
        if limit and self._codec_pool.qsize() >= limit:
            return "codec-queue-full"
        return None

    def _reject(self, conn: socket.socket, reason: str) -> None:
        self.flows_rejected += 1
        try:
            conn.send(encode_control({"ok": False, "error": reason}))
            # Consume whatever hello bytes already arrived so close()
            # does not RST the reject frame out of the peer's buffer.
            conn.setblocking(False)
            try:
                conn.recv(64 * 1024)
            except BlockingIOError:
                pass  # nothing buffered yet — expected, not an error
            except OSError as exc:
                self._internal_error("reject-drain", exc)
        except OSError as exc:
            # The peer may already be gone; the reject is best effort,
            # but losing it silently would hide e.g. fd exhaustion.
            self._internal_error("reject-send", exc)
        finally:
            conn.close()
        if BUS.active:
            BUS.publish(
                FlowRejected(
                    ts=BUS.now(),
                    source=self.TELEMETRY_SOURCE,
                    reason=reason,
                    active_flows=len(self._flows),
                )
            )

    def _drain_waker(self) -> None:
        while True:
            try:
                if not self._waker_r.recv(4096):
                    return
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._internal_error("waker-recv", exc)
                return

    def _notify(self, flow: Flow) -> None:
        """Called by codec-pool workers when a flow's job completes."""
        with self._pending_lock:
            self._pending.append(flow)
        self._wake()

    def _wake(self) -> None:
        try:
            self._waker_w.send(b"\0")
        except (BlockingIOError, InterruptedError):
            pass  # pipe already full: the loop is awake anyway
        except OSError as exc:
            if not self._closed:  # post-teardown wakes are expected
                self._internal_error("waker-send", exc)

    def _advance(self, touched: List[Flow]) -> None:
        seen = set()
        for flow in touched:
            if flow.flow_id in seen or flow.flow_id not in self._flows:
                continue
            seen.add(flow.flow_id)
            flow.pump()
            if flow.flow_id in self._announced:
                pass
            elif flow.state is not FlowState.HANDSHAKING and flow.ok:
                self._announce(flow)
            if flow.state is FlowState.CLOSED:
                self._close_flow(flow)
            else:
                self._update_interest(flow)

    def _internal_error(self, site: str, exc: BaseException) -> None:
        """Account an error a best-effort path suppressed.

        The paths that call this must not let one socket's failure take
        the event loop down — but a swallow that leaves no trace hides
        real trouble (fd exhaustion, a dying NIC) from operators.  Every
        former ``except: pass`` site now lands here: a counter, a
        per-site tally, a debug log line, and (when telemetry is on) a
        :class:`ServeInternalError` event.  ``/healthz`` reports the
        totals.
        """
        self.internal_errors += 1
        self.internal_error_sites[site] = self.internal_error_sites.get(site, 0) + 1
        logger.debug("suppressed internal error at %s: %r", site, exc)
        if BUS.active:
            BUS.publish(
                ServeInternalError(
                    ts=BUS.now(),
                    source=self.TELEMETRY_SOURCE,
                    site=site,
                    error=repr(exc),
                )
            )

    def _rates_pass(self) -> None:
        """Close per-flow rate windows; feed the fleet controller if any.

        Runs once per loop pass whether or not a policy is configured:
        the closed windows back each flow's ``last_app_rate`` /
        ``last_ratio`` gauges, which the admin endpoint's ``/metrics``
        and ``/flows`` views read.  Each flow closes a window at most
        every ``epoch_seconds`` and the controller runs its policy at
        most every ``control_interval``, so the common case is a few
        subtractions per flow.
        """
        now = self._clock()
        controller = self._controller
        for flow in list(self._flows.values()):
            if flow.flow_id not in self._announced or flow.state is FlowState.CLOSED:
                continue
            sample = flow.sample_rates(now, self.config.epoch_seconds)
            if sample is None:
                continue
            app_rate, ratio = sample
            level = flow.echo_level
            if controller is not None:
                controller.observe_flow(
                    flow.flow_id,
                    now=now,
                    level=level,
                    app_rate=app_rate,
                    app_bytes=float(flow.app_bytes),
                    observed_ratio=ratio,
                )
            if BUS.active:
                BUS.publish(
                    FlowRates(
                        ts=BUS.now(),
                        source=self.TELEMETRY_SOURCE,
                        flow_id=flow.flow_id,
                        level=level,
                        app_rate=app_rate,
                        app_bytes=float(flow.app_bytes),
                        observed_ratio=ratio,
                        worker_weight=flow.control_weight,
                    )
                )
        if controller is not None:
            controller.on_tick(now)

    # -- hot config reload -------------------------------------------

    def request_reload(self, changes: Dict[str, object]) -> Dict[str, object]:
        """Validate and enqueue a config change set (any thread).

        Accepts a subset of :data:`RELOADABLE_KEYS` and checks it with
        the validator startup runs, :class:`ServeConfig`; raises
        ``ValueError`` on unknown keys or bad values *before* anything
        is enqueued, so a failed reload leaves the daemon untouched.
        The loop thread applies the normalized change set on its next
        pass — live flows are retuned in place and no connection is
        dropped.  Returns the normalized change set.
        """
        for key in changes:
            if key not in RELOADABLE_KEYS:
                raise ValueError(f"not a reloadable key: {key!r}")
        config = replace(self.config, **changes)
        normalized = {key: getattr(config, key) for key in changes}
        if normalized:
            with self._reload_lock:
                self._reload_requests.append(normalized)
            self._wake()
        return normalized

    def _apply_reloads(self) -> None:
        """Apply queued reload requests (loop thread only)."""
        while True:
            with self._reload_lock:
                if not self._reload_requests:
                    return
                changes = self._reload_requests.popleft()
            self._apply_reload(changes)

    def _apply_reload(self, changes: Dict[str, object]) -> None:
        """Swap in the reloaded config; act on the keys that changed.

        ``idle_timeout``, ``max_flows`` and ``max_queued_jobs`` are read
        from the config where they are used, so the swap applies them.
        """
        old, new = self.config, replace(self.config, **changes)
        self.config = new
        changed = tuple(k for k in RELOADABLE_KEYS if getattr(new, k) != getattr(old, k))
        flows_updated = 0
        live = [
            flow
            for flow in list(self._flows.values())
            if flow.flow_id in self._announced and flow.state is not FlowState.CLOSED
        ]
        if "level" in changed:
            level = self._default_level
            for flow in live:
                if flow.reload_level(level):
                    flows_updated += 1
        if "policy" in changed:
            if self._controller is not None:
                # Return every managed flow to self-rule before the old
                # control plane goes away.
                for flow in live:
                    if flow.apply_control(None, 1.0):
                        flows_updated += 1
                        self._update_interest(flow)
            self._controller = self._make_controller()
            if self._controller is not None:
                now = self._clock()
                for flow in live:
                    self._controller.flow_opened(flow.flow_id, now=now)
        elif "control_interval" in changed and self._controller is not None:
            self._controller.control_interval = self.config.control_interval

        self.reloads += 1
        self.last_reload = {
            "changed": changed,
            "flows_updated": flows_updated,
            "at": time.time(),
        }
        logger.info(
            "config reload #%d applied: changed=%s flows_updated=%d",
            self.reloads,
            ",".join(changed) or "nothing",
            flows_updated,
        )
        if BUS.active:
            BUS.publish(
                ConfigReloaded(
                    ts=BUS.now(),
                    source=self.TELEMETRY_SOURCE,
                    changed=changed,
                    flows_updated=flows_updated,
                    reloads=self.reloads,
                )
            )

    def _apply_assignment(self, flow_id: int, assignment: Assignment) -> None:
        """Fleet-controller actuator (invoked on the loop thread)."""
        flow = self._flows.get(flow_id)
        if flow is None:
            return
        if flow.apply_control(assignment.level, assignment.weight):
            # The flow's window and the write queue may both have
            # changed; refresh selector interest immediately.
            self._update_interest(flow)

    def _announce(self, flow: Flow) -> None:
        self._announced.add(flow.flow_id)
        if self._controller is not None:
            self._controller.flow_opened(flow.flow_id, now=self._clock())
        if BUS.active:
            BUS.publish(
                FlowAccepted(
                    ts=BUS.now(),
                    source=self.TELEMETRY_SOURCE,
                    flow_id=flow.flow_id,
                    peer=flow.peer,
                    mode=flow.mode,
                    active_flows=len(self._flows),
                )
            )

    def _update_interest(self, flow: Flow) -> None:
        mask = 0
        if flow.wants_read:
            mask |= selectors.EVENT_READ
        if flow.wants_write:
            mask |= selectors.EVENT_WRITE
        old = self._masks.get(flow.flow_id, 0)
        if mask == old:
            return
        sel = self._selector
        assert sel is not None
        if old == 0:
            sel.register(flow.sock, mask, flow)
        elif mask == 0:
            sel.unregister(flow.sock)
        else:
            sel.modify(flow.sock, mask, flow)
        self._masks[flow.flow_id] = mask

    def _check_timeouts(self) -> None:
        now = self._clock()
        victims: List[Flow] = []
        if self._draining and self._drain_deadline is not None and now >= self._drain_deadline:
            victims.extend(self._flows.values())
            reason = "drain-deadline"
        elif self.config.idle_timeout:
            reason = "idle-timeout"
            for flow in self._flows.values():
                if now - flow.last_activity >= self.config.idle_timeout:
                    victims.append(flow)
        else:
            return
        for flow in list(victims):
            flow.fail(reason)
            self._close_flow(flow)

    def _close_flow(self, flow: Flow) -> None:
        if self._masks.get(flow.flow_id, 0) != 0 and self._selector is not None:
            try:
                self._selector.unregister(flow.sock)
            except (KeyError, ValueError) as exc:  # pragma: no cover - defensive
                self._internal_error("selector-unregister", exc)
        self._masks.pop(flow.flow_id, None)
        self._flows.pop(flow.flow_id, None)
        try:
            flow.sock.close()
        except OSError as exc:  # pragma: no cover - defensive
            self._internal_error("flow-close", exc)
        if self.config.trace_dir is not None:
            self._write_flow_trace(flow)
        if flow.ok:
            self.flows_completed += 1
        else:
            self.flows_failed += 1
        if self._controller is not None:
            self._controller.flow_closed(flow.flow_id)
        if BUS.active:
            now = BUS.now()
            BUS.publish(
                FlowClosed(
                    ts=now,
                    source=self.TELEMETRY_SOURCE,
                    flow_id=flow.flow_id,
                    mode=flow.mode,
                    ok=flow.ok,
                    reason=flow.failure or "completed",
                    bytes_in=flow.wire_bytes_in,
                    bytes_out=flow.bytes_out,
                    app_bytes=flow.app_bytes,
                    blocks_in=flow.blocks_in,
                    blocks_out=flow.blocks_out,
                    seconds=self._clock() - flow.opened_at,
                    active_flows=len(self._flows),
                )
            )
            self._publish_pool_stats(now)

    def _publish_pool_stats(self, ts: float) -> None:
        BUS.publish(
            PipelineQueueDepth(
                ts=ts,
                source=f"{self.TELEMETRY_SOURCE}-codec",
                depth=self._codec_pool.qsize(),
                in_flight=self._codec_pool.in_flight,
                workers=self._codec_pool.workers,
            )
        )
        stats = self._buffer_pool.stats()
        BUS.publish(
            BufferPoolStats(
                ts=ts,
                source=self.TELEMETRY_SOURCE,
                hits=stats["hits"],
                misses=stats["misses"],
                oversize=stats["oversize"],
                free_slabs=stats["free_slabs"],
            )
        )

    def _write_flow_trace(self, flow: Flow) -> None:
        """Persist one v2 replay trace for a closed flow (best effort).

        Only echo flows accumulate controller epochs; sink flows and
        flows that closed before their first epoch write nothing.  A
        write failure is accounted via :meth:`_internal_error` rather
        than failing the close — trace capture must never take a
        healthy daemon down with a full disk.
        """
        if flow.controller is None or not flow.controller.trace:
            return
        # Imported lazily: the replay module pulls in the simulator,
        # which a daemon without --trace-dir never needs.
        from ..schemes.replay import dump_trace, records_from_epochs

        observations, decisions = records_from_epochs(
            flow.controller.trace, flow_id=flow.flow_id
        )
        path = os.path.join(self.config.trace_dir, f"flow-{flow.flow_id}.jsonl")
        try:
            os.makedirs(self.config.trace_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fp:
                dump_trace(observations, fp, decisions)
        except OSError as exc:
            self._internal_error("trace-write", exc)

    # -- operational snapshots (any thread; admin endpoint reads) ----

    def status(self) -> Dict[str, object]:
        """Daemon-level operational snapshot (JSON-safe)."""
        return {
            "address": list(self.address),
            "uptime_seconds": self._clock() - self.started_at,
            "draining": self._draining,
            "closed": self._closed,
            "active_flows": len(self._flows),
            "flows_accepted": self.flows_accepted,
            "flows_rejected": self.flows_rejected,
            "flows_completed": self.flows_completed,
            "flows_failed": self.flows_failed,
            "internal_errors": self.internal_errors,
            "internal_error_sites": dict(self.internal_error_sites),
            "reloads": self.reloads,
            "last_reload": self.last_reload,
            "level": self.config.level,
            "policy": self.config.policy,
            "control_interval": self.config.control_interval,
            "max_flows": self.config.max_flows,
            "idle_timeout": self.config.idle_timeout,
            "trace_dir": self.config.trace_dir,
            "codec": self.codec_stats(),
            "buffer_pool": self._buffer_pool.stats(),
        }

    def flows_snapshot(self) -> List[Dict[str, object]]:
        """Per-flow snapshots for ``/flows`` (possibly slightly torn)."""
        return [flow.status() for flow in list(self._flows.values())]

    def healthz(self) -> Tuple[bool, Dict[str, object]]:
        """``(ready, detail)`` for the admin ``/healthz`` endpoint.

        Ready means: the loop is live and not draining.  The detail dict
        carries the individual verdicts plus the suppressed-error
        tallies so a probe failure is diagnosable from the probe body
        alone.
        """
        live = self._running.is_set() and not self._finished.is_set()
        ready = live and not self._draining and not self._closed
        return ready, {
            "ready": ready,
            "live": live,
            "draining": self._draining,
            "closed": self._closed,
            "active_flows": len(self._flows),
            "internal_errors": self.internal_errors,
            "internal_error_sites": dict(self.internal_error_sites),
            "uptime_seconds": self._clock() - self.started_at,
        }

    def _teardown(self, listener_open: bool) -> None:
        if self._closed:
            return
        self._closed = True
        for flow in list(self._flows.values()):
            if flow.state is not FlowState.CLOSED:
                flow.fail("server-stopped")
            self._close_flow(flow)
        sel = self._selector
        if sel is not None:
            try:
                sel.close()
            except OSError as exc:  # pragma: no cover - defensive
                self._internal_error("selector-close", exc)
        if listener_open:
            self._listener.close()
        self._waker_r.close()
        self._waker_w.close()
        if BUS.active:
            self._publish_pool_stats(BUS.now())
        if self._owns_pool:
            self._codec_pool.close()

    # -- context manager ---------------------------------------------

    def __enter__(self) -> "TransferServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None, timeout=10.0)
