"""Load generation against a ``repro-compress serve`` daemon.

The daemon always runs as its own process, started through
``launcher.py``; this module is the client side.  Load comes from the
public :class:`repro.serve.ServeClient` over loopback TCP, closed loop:
each connection starts its next flow only when the previous one has
returned with a verified trailer.  The load process uses at most
``nproc`` threads and connections, and checks it.

Two workloads:

* ``upload-mix`` — 2 connections share one seeded plan of sink-mode
  uploads.  Each flow is 2 MiB of class HIGH, MODERATE or LOW sent at a
  static client level drawn from {NO, LIGHT, LIGHT, MEDIUM}, 128 KiB
  blocks.  The plan is dealt from shuffled 12-card decks (3 classes x
  4 level cards) and the run always ends on a deck boundary, so every
  class x level cell occurs and the mix is the same on every seed.
* ``echo-frames`` — 1 connection of echo flows, 8 MiB each, NO level
  with 16 KiB blocks in both directions: the smallest-frame regime,
  where framing, CRC, copies, syscalls and the loop dominate.
"""

from __future__ import annotations

import ipaddress
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.codecs.block import encode_block
from repro.core.levels import default_level_table
from repro.data.corpus import Compressibility, generate
from repro.serve import ServeClient, ServeError
from repro.serve.protocol import MODE_SINK, encode_hello, parse_control

import ledger as ledger_mod

HERE = os.path.dirname(os.path.abspath(__file__))
MIB = 1 << 20

#: Each payload tiles one seeded ``generate()`` file of this size; the
#: paper's jobs likewise re-send one file (``SyntheticCorpus``).
BASE_FILE = 256 * 1024
CLASSES = (Compressibility.HIGH, Compressibility.MODERATE, Compressibility.LOW)
UPLOAD_LEVELS = ("NO", "LIGHT", "LIGHT", "MEDIUM")
UPLOAD_BYTES = 2 * MIB
UPLOAD_BLOCK = 128 * 1024
UPLOAD_CONNECTIONS = 2
ECHO_BYTES = 8 * MIB
ECHO_BLOCK = 16 * 1024

#: Daemon spawns per measurement; setup_s is their median.
SETUP_SPAWNS = 9
#: Chunk size the client hands to its block writer.
CHUNK = 256 * 1024
#: echo-frames: traced codec time must stay below this share of the
#: daemon's busy time, or the workload no longer measures framing.
ECHO_CODEC_SHARE_MAX = 0.15


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_of(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fp:
        stat = fp.read()
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _own_cpu() -> float:
    times = os.times()
    return times.user + times.system


class Daemon:
    """One ``serve`` process started through the shared launcher."""

    def __init__(self, traced: bool) -> None:
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"), "--trace", str(int(traced))],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            pid_line = self.proc.stdout.readline().split()
            if pid_line[:1] != ["perfbench-pid"] or int(pid_line[1]) != self.proc.pid:
                raise RuntimeError(f"the spawned launcher is not the daemon: {pid_line!r}")
            self.pid = self.proc.pid
            serving = self.proc.stdout.readline().split()
            if serving[:2] != ["serving", "on"]:
                raise RuntimeError(f"daemon did not start: {serving!r}")
            host, port = serving[2].rsplit(":", 1)
            self.host, self.port = host, int(port)
            self._probe_flow()
            self.setup_s = self._ack_at - t0
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _probe_flow(self) -> None:
        """A zero-byte sink flow; stamps the first admission ack and
        records the address the connection really reached."""
        with socket.create_connection((self.host, self.port), timeout=30) as sock:
            self.peer = sock.getpeername()[0]
            sock.sendall(encode_hello(MODE_SINK, {}))
            buf = bytearray()
            replies = []
            while len(replies) < 2:
                parsed = parse_control(buf)
                if parsed is not None:
                    body, used = parsed
                    del buf[:used]
                    replies.append(body)
                    if len(replies) == 1:
                        self._ack_at = time.monotonic()
                        sock.shutdown(socket.SHUT_WR)
                    continue
                chunk = sock.recv(4096)
                if not chunk:
                    raise RuntimeError("daemon closed the probe flow early")
                buf.extend(chunk)
        ack, trailer = replies
        if not ack.get("ok") or not trailer.get("ok") or trailer.get("app_bytes") != 0:
            raise RuntimeError(f"probe flow failed: {ack!r} {trailer!r}")

    def cpu_s(self) -> float:
        return _cpu_of(self.pid)

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and parse the launcher report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        report = None
        for line in out.splitlines():
            if line.startswith("perfbench-report "):
                report = json.loads(line.split(" ", 1)[1])
        if report is None or self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited {self.proc.returncode} without a report")
        return report


@dataclass
class Inputs:
    """Everything generated from the seed; the daemon sees only bytes."""

    seed: int
    workload: str
    payloads: Dict[str, bytes]
    plan: List[Tuple[str, str]]  #: (class, level) per flow, in order
    #: upload-mix: framed bytes of each (class, level) cell, offline.
    cell_wire: Dict[Tuple[str, str], int] = field(default_factory=dict)


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = random.Random(f"perfbench/{workload}/{seed}")
    size = UPLOAD_BYTES if workload == "upload-mix" else ECHO_BYTES
    payloads = {}
    for cls in CLASSES:
        base = generate(cls, BASE_FILE, seed=seed)
        payloads[cls.name] = base * (size // BASE_FILE)
    plan: List[Tuple[str, str]] = []
    if workload == "upload-mix":
        deck = [(cls.name, level) for cls in CLASSES for level in UPLOAD_LEVELS]
    else:
        deck = [(cls.name, "NO") for cls in CLASSES]
    for _ in range(12000 // len(deck)):
        rng.shuffle(deck)
        plan.extend(deck)
    inputs = Inputs(seed=seed, workload=workload, payloads=payloads, plan=plan)
    if workload == "upload-mix":
        levels = default_level_table()
        for cls_name, level in set(deck):
            codec = levels.codec(levels.index_of(level))
            data = memoryview(payloads[cls_name])
            inputs.cell_wire[(cls_name, level)] = sum(
                len(encode_block(data[i : i + UPLOAD_BLOCK], codec).frame)
                for i in range(0, len(data), UPLOAD_BLOCK)
            )
    return inputs


class _Source:
    """Zero-copy chunk iterator that also samples the load's thread count."""

    def __init__(self, data: bytes, shape: "LoadShape") -> None:
        self._data = data
        self._shape = shape

    def __iter__(self):
        self._shape.sample()
        view = memoryview(self._data)
        for offset in range(0, len(self._data), CHUNK):
            yield view[offset : offset + CHUNK]


class LoadShape:
    """Load-shape guard: threads and connections stay within ``nproc``."""

    def __init__(self) -> None:
        self.max_threads = 0
        self.max_connections = 0
        self._lock = threading.Lock()
        self._open = 0

    def sample(self) -> None:
        n = threading.active_count()
        with self._lock:
            self.max_threads = max(self.max_threads, n)

    def connect(self, delta: int) -> None:
        with self._lock:
            self._open += delta
            self.max_connections = max(self.max_connections, self._open)


@dataclass
class FlowRecord:
    cell: Tuple[str, str]
    seconds: float
    app_bytes: int
    wire_bytes: int


@dataclass
class Window:
    """One measured window of closed-loop load against one daemon."""

    flows: List[FlowRecord]
    errors: List[str]
    attempted: int
    wall_s: float
    daemon_cpu_s: float
    client_cpu_s: float
    setup_s: float
    report: dict
    shape: LoadShape
    #: Address the load connected to, as the socket reported it.
    peer: str
    client_ledger: Optional[dict]


def _drive(inputs: Inputs, host: str, port: int, seconds: float, shape: LoadShape):
    """Closed loop on the workload's connections until ``seconds`` pass."""
    upload = inputs.workload == "upload-mix"
    conns = UPLOAD_CONNECTIONS if upload else 1
    deal = len(CLASSES) * (len(UPLOAD_LEVELS) if upload else 1)
    lock = threading.Lock()
    state = {"next": 0}
    flows: List[FlowRecord] = []
    errors: List[str] = []
    deadline = time.monotonic() + seconds

    def take() -> Optional[int]:
        with lock:
            i = state["next"]
            # Stop only on a deck boundary, so every run sends whole decks.
            if errors or (time.monotonic() >= deadline and i % deal == 0):
                return None
            if i >= len(inputs.plan):
                raise RuntimeError("plan exhausted; raise its length")
            state["next"] = i + 1
            return i

    def connection() -> None:
        client = ServeClient(host, port, timeout=60.0)
        shape.connect(1)
        try:
            while True:
                i = take()
                if i is None:
                    return
                cls_name, level = inputs.plan[i]
                source = _Source(inputs.payloads[cls_name], shape)
                try:
                    if upload:
                        result = client.upload(source, level=level, block_size=UPLOAD_BLOCK)
                    else:
                        result = client.echo(
                            source,
                            level="NO",
                            block_size=ECHO_BLOCK,
                            server_level="NO",
                            server_block_size=ECHO_BLOCK,
                            collect=False,
                        )
                except (ServeError, OSError) as exc:
                    with lock:
                        errors.append(f"flow {i} {cls_name}/{level}: {exc!r}")
                    return
                record = FlowRecord(
                    (cls_name, level), result.seconds, result.app_bytes, result.wire_bytes_sent
                )
                with lock:
                    flows.append(record)
        finally:
            shape.connect(-1)

    helpers = [threading.Thread(target=connection) for _ in range(conns - 1)]
    start = time.monotonic()
    for thread in helpers:
        thread.start()
    connection()
    for thread in helpers:
        thread.join()
    return flows, errors, state["next"], time.monotonic() - start


def measure(inputs: Inputs, seconds: float, traced: bool) -> Window:
    """Spawn daemons (setup_s), then drive closed-loop load at the last."""
    setups = []
    daemon = None
    for k in range(SETUP_SPAWNS):
        daemon = Daemon(traced)
        setups.append(daemon.setup_s)
        if k < SETUP_SPAWNS - 1:
            report = daemon.stop()
            if report["flows_failed"] or report["internal_errors"]:
                raise RuntimeError(f"setup daemon reported failures: {report!r}")
    assert daemon is not None
    shape = LoadShape()
    client_ledger = ledger_mod.Ledger(clock=time.thread_time) if traced else None
    undo = ledger_mod.install_client(client_ledger) if traced else None
    try:
        cpu_d0, cpu_c0 = daemon.cpu_s(), _own_cpu()
        flows, errors, attempted, wall = _drive(inputs, daemon.host, daemon.port, seconds, shape)
        cpu_d1, cpu_c1 = daemon.cpu_s(), _own_cpu()
    finally:
        if undo is not None:
            undo()
        report = daemon.stop()
    return Window(
        flows=flows,
        errors=errors,
        attempted=attempted,
        wall_s=wall,
        daemon_cpu_s=cpu_d1 - cpu_d0,
        client_cpu_s=cpu_c1 - cpu_c0,
        setup_s=statistics.median(setups),
        report=report,
        shape=shape,
        peer=daemon.peer,
        client_ledger=client_ledger.totals() if client_ledger is not None else None,
    )


def end_to_end(inputs: Inputs, w: Window) -> Dict[str, float]:
    app = sum(f.app_bytes for f in w.flows)
    times = [f.seconds * 1000.0 for f in w.flows]
    return {
        "goodput_mb_s": app / 1e6 / w.wall_s,
        "mb_per_cpu_s": app / 1e6 / (w.daemon_cpu_s + w.client_cpu_s),
        "flow_p50_ms": statistics.median(times),
        "flow_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8],
        "wire_ratio": sum(f.wire_bytes for f in w.flows) / app,
        "setup_s": w.setup_s,
        "peak_rss_mb": w.report["vm_hwm_kb"] / 1024.0,
    }


def check(inputs: Inputs, w: Window, min_flows: int) -> List[str]:
    """Every correctness, validity and load-shape check; [] when all pass.

    ``min_flows`` is 100 for a window whose ``flow_p90_ms`` is reported,
    so at least ten samples lie beyond the p90.
    """
    problems = list(w.errors)
    r = w.report
    n = len(w.flows)
    if n != w.attempted:
        problems.append(f"{w.attempted - n} of {w.attempted} flows did not complete")
    if n < min_flows:
        problems.append(f"only {n} flows completed; p90 needs >= {min_flows}")
    for key in ("flows_failed", "flows_rejected", "internal_errors"):
        if r[key]:
            problems.append(f"daemon {key} = {r[key]}")
    if r["flows_completed"] != n + 1:  # + the setup probe flow
        problems.append(f"daemon completed {r['flows_completed']} flows, client {n} + 1")
    if w.daemon_cpu_s <= 0:
        problems.append("the daemon process spent no CPU time serving the load")
    own = [t.name for t in threading.enumerate() if t.name.startswith("repro-serve")]
    if own:
        problems.append(f"serve threads inside the load process: {own}")
    if w.shape.max_threads > nproc() or w.shape.max_connections > nproc():
        problems.append(
            f"load used {w.shape.max_threads} threads / {w.shape.max_connections} "
            f"connections > nproc {nproc()}"
        )
    if not ipaddress.ip_address(w.peer).is_loopback:
        problems.append(f"traffic went to {w.peer}, not loopback")
    if inputs.workload == "upload-mix":
        cells = {f.cell for f in w.flows}
        if cells != set(inputs.cell_wire):
            problems.append(f"plan missed cells {set(inputs.cell_wire) - cells}")
        expected = sum(inputs.cell_wire[f.cell] for f in w.flows)
        actual = sum(f.wire_bytes for f in w.flows)
        if expected != actual:
            problems.append(f"wire bytes {actual} != offline encode_block {expected}")
    return problems
