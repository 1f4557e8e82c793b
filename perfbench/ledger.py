"""In-memory span ledger and the wrappers that feed it.

Every wrapper installed here times one public call into a layer of
``repro`` from the outside: nothing under ``src/`` is edited.  A span
is closed into per-thread totals as soon as it ends (count, wall
seconds, self seconds, bytes), so a run of millions of frames costs a
few dictionaries rather than a span list; the totals are merged and
written out once, when the benchmark drains.

A layer's *self* time is its span minus the spans it called: each
thread keeps a stack of child-time accumulators, and a closing span
adds its full duration to its parent's accumulator.

Three install functions cover the three processes the benchmark runs:
the load client (:func:`install_client`, which returns an undo callable
because the load process also measures untraced windows), the
``serve`` daemon (:func:`install_daemon`, called by ``launcher.py``)
and a fleet simulation (:func:`install_sim`, called by
``simfleet.py``); the last two stay installed for the process's life.
"""

from __future__ import annotations

import functools
import os
import selectors
import threading
import time
from typing import Callable, Dict, List

_perf = time.perf_counter

#: Index of each field in a per-name record.
COUNT, TOTAL, SELF, BYTES = range(4)


class Ledger:
    """Per-thread span totals, merged on demand.

    ``clock`` times the spans: wall time (``perf_counter``) for a
    single-threaded process, or the thread's own CPU time
    (``thread_time``) where threads contend for cores and the GIL, so
    that the layers add up to the process's CPU seconds instead of
    counting each other's waits.
    """

    def __init__(self, clock: Callable[[], float] = _perf) -> None:
        self._clock = clock
        self._local = threading.local()
        self._tables: List[Dict[str, list]] = []
        self._lock = threading.Lock()

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def enter(self):
        """Open a span on this thread; pass the token to :meth:`leave`."""
        stack, _ = self._thread_state()
        stack.append(0.0)
        return self._clock()

    def leave(self, name: str, t0: float, nbytes: int = 0) -> float:
        """Close the innermost span of this thread; returns its duration."""
        dt = self._clock() - t0
        stack, table = self._thread_state()
        child = stack.pop()
        rec = table.get(name)
        if rec is None:
            rec = table[name] = [0, 0.0, 0.0, 0]
        rec[COUNT] += 1
        rec[TOTAL] += dt
        rec[SELF] += dt - child
        rec[BYTES] += nbytes
        if stack:
            stack[-1] += dt
        return dt

    def count(self, name: str, n: int = 1, seconds: float = 0.0) -> None:
        """Add to a counter that is not a span (no effect on self time)."""
        _, table = self._thread_state()
        rec = table.get(name)
        if rec is None:
            rec = table[name] = [0, 0.0, 0.0, 0]
        rec[COUNT] += n
        rec[TOTAL] += seconds

    def wrap(self, name: str, fn: Callable, nbytes: Callable = None) -> Callable:
        """``fn`` timed as span ``name``; ``nbytes(args, result)`` sizes it.

        The body inlines :meth:`enter` and :meth:`leave`: this wrapper
        runs several times per frame, so its own cost is the overhead.
        """
        local, clock, thread_state = self._local, self._clock, self._thread_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = thread_state()[0]
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec = local.table.get(name)
                if rec is None:
                    rec = local.table[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if nbytes is not None and result is not None:
                    rec[3] += nbytes(args, result)
                if stack:
                    stack[-1] += dt

        return wrapper

    def totals(self) -> Dict[str, list]:
        """All threads' records summed by name (call once threads idle)."""
        merged: Dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, rec in list(table.items()):
                into = merged.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    into[i] += rec[i]
        return merged


class Patcher:
    """Sets attributes and remembers how to put the originals back."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, self._MISSING)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _nbytes(data) -> int:
    return data.nbytes if isinstance(data, memoryview) else len(data)


def _codec_classes():
    """Every loaded codec class, registry and level-table ones alike."""
    from repro.codecs.base import Codec
    from repro.core.levels import default_level_table

    default_level_table()  # imports every codec module the levels use
    found, todo = set(), [Codec]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return sorted(found, key=lambda c: c.__name__)


def _install_codecs(ledger: Ledger, patch: Patcher) -> None:
    """Codec calls, frame encode/decode and the stored-fallback ratio.

    Names imported directly into a module are patched there too
    (``repro.serve.flow.decode_payload`` and friends), because that
    is the name the module calls.
    """
    from repro.codecs import block
    from repro.serve import client as serve_client
    from repro.serve import flow as serve_flow

    # Resolve every original before patching any: LightZlibCodec
    # inherits ZlibCodec.compress and must wrap the unpatched one.
    originals = [(cls, cls.compress, cls.decompress) for cls in _codec_classes()]
    for cls, compress, decompress in originals:
        patch.set(
            cls,
            "compress",
            ledger.wrap(
                f"codecs.compress:{cls.__name__}", compress, lambda a, r: _nbytes(a[1])
            ),
        )
        patch.set(
            cls,
            "decompress",
            ledger.wrap(
                f"codecs.decompress:{cls.__name__}", decompress, lambda a, r: len(r)
            ),
        )

    def encoder(name: str, fn: Callable) -> Callable:
        enter, leave, count = ledger.enter, ledger.leave, ledger.count

        @functools.wraps(fn)
        def wrapper(data, codec, *args, **kwargs):
            t0 = enter()
            try:
                encoded = fn(data, codec, *args, **kwargs)
            finally:
                leave(name, t0)
            if codec.codec_id != 0:
                count("codecs.attempts")
                if encoded.header.stored_fallback:
                    count("codecs.stored")
            return encoded

        return wrapper

    wrapped = {
        "encode_block": encoder("codecs.frame:encode_block", block.encode_block),
        "encode_block_parts": encoder(
            "codecs.frame:encode_block_parts", block.encode_block_parts
        ),
        "decode_header": ledger.wrap("codecs.frame:decode_header", block.decode_header),
        "verify_crc": ledger.wrap("codecs.frame:verify_crc", block.verify_crc),
        "decode_payload": ledger.wrap(
            "codecs.frame:decode_payload", block.decode_payload
        ),
    }
    for module in (block, serve_flow, serve_client):
        for name, fn in wrapped.items():
            if name in module.__dict__:
                patch.set(module, name, fn)


def install_client(ledger: Ledger) -> Callable[[], None]:
    """Wrappers for the load-generating process (the serve client)."""
    from repro.core.stream import StaticBlockWriter
    from repro.io.sockets import VectoredSocketWriter

    patch = Patcher()
    _install_codecs(ledger, patch)
    patch.set(
        StaticBlockWriter,
        "write",
        ledger.wrap("core.stream.write", StaticBlockWriter.write),
    )
    patch.set(
        VectoredSocketWriter,
        "writev",
        ledger.wrap("io.sockets.writev", VectoredSocketWriter.writev, lambda a, r: r),
    )
    return patch.undo


def install_daemon(ledger: Ledger, loop_cpu: dict) -> None:
    """Wrappers for the ``serve`` daemon process.

    ``serve_forever`` is the loop thread's root span: its self time is
    ``serve.loop_other_s``, the loop's CPU time outside every named
    layer (selector calls and scheduling included).  The wall time the
    loop spends blocked in ``select`` is counted as ``serve.idle``.
    ``loop_cpu`` receives the process CPU seconds spent while the loop
    ran, the denominator of ``trace.coverage``.
    """

    from repro.core.pipeline import CodecThreadPool
    from repro.serve.flow import Flow
    from repro.serve.server import TransferServer

    patch = Patcher()
    _install_codecs(ledger, patch)

    read = Flow.handle_read

    def handle_read(self, *args, **kwargs):
        before = self.wire_bytes_in
        t0 = ledger.enter()
        try:
            return read(self, *args, **kwargs)
        finally:
            ledger.leave("serve.read", t0, self.wire_bytes_in - before)

    patch.set(Flow, "handle_read", handle_read)
    patch.set(
        Flow,
        "handle_write",
        ledger.wrap("serve.write", Flow.handle_write, lambda a, r: r),
    )
    patch.set(Flow, "pump", ledger.wrap("serve.pump", Flow.pump))

    submit = CodecThreadPool.submit

    def traced_submit(self, fn):
        submitted = _perf()

        def job(index):
            ledger.count("core.pipeline.queue_wait", 1, _perf() - submitted)
            t0 = ledger.enter()
            try:
                return fn(index)
            finally:
                ledger.leave("core.pipeline.job", t0)

        return submit(self, job)

    patch.set(CodecThreadPool, "submit", traced_submit)

    default_selector = selectors.DefaultSelector

    class TracedSelector(default_selector):
        def select(self, timeout=None):
            t0 = _perf()
            try:
                return super().select(timeout)
            finally:
                ledger.count("serve.idle", 1, _perf() - t0)

    patch.set(selectors, "DefaultSelector", TracedSelector)

    serve_forever = TransferServer.serve_forever

    def traced_serve_forever(self):
        cpu0 = os.times()
        t0 = ledger.enter()
        try:
            return serve_forever(self)
        finally:
            ledger.leave("serve.loop", t0)
            cpu1 = os.times()
            loop_cpu["seconds"] = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)

    patch.set(TransferServer, "serve_forever", traced_serve_forever)


def install_sim(ledger: Ledger) -> None:
    """Wrappers for a fleet simulation: schemes, control, link, engine.

    ``Environment.run`` is the root span; its self time is
    ``sim.engine.self_s`` — the event loop plus the transfer processes'
    own bookkeeping, everything outside the named layers.
    """
    from repro.control.controller import FleetController
    from repro.schemes.rate_based import RateBasedScheme
    from repro.sim import link
    from repro.sim.engine import Environment

    patch = Patcher()
    on_epoch = RateBasedScheme.on_epoch

    def traced_on_epoch(self, obs):
        before = self.current_level
        t0 = ledger.enter()
        try:
            level = on_epoch(self, obs)
        finally:
            ledger.leave("schemes.on_epoch", t0)
        if level != before:
            ledger.count("schemes.level_changes")
        return level

    patch.set(RateBasedScheme, "on_epoch", traced_on_epoch)
    patch.set(
        FleetController, "on_tick", ledger.wrap("control.tick", FleetController.on_tick)
    )
    patch.set(
        FleetController,
        "observe_flow",
        ledger.wrap("control.observe", FleetController.observe_flow),
    )
    for name in (
        "transmit",
        "allocation_preview",
        "set_capacity_factor",
        "open_flow",
        "close_flow",
        "_on_wake",
    ):
        patch.set(
            link.SharedLink,
            name,
            ledger.wrap(f"sim.link:{name}", getattr(link.SharedLink, name)),
        )
    patch.set(link.Flow, "set_demand", ledger.wrap("sim.link:set_demand", link.Flow.set_demand))
    patch.set(Environment, "run", ledger.wrap("sim.engine.run", Environment.run))
