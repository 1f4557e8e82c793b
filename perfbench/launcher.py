"""Start ``repro-compress serve`` for the benchmark, traced or not.

Usage (from the repository root)::

    python3 perfbench/launcher.py --trace 0|1

The one launcher both the untraced and the traced runs use.  It runs
the real CLI, ``repro.io.cli.main(["serve"])``, with the default
config and no other options.  With ``--trace 1`` it first
installs the daemon-side ledger wrappers.  Before serving it prints
``perfbench-pid <pid>`` so the load process can prove the daemon is a
separate process; after the CLI drains (SIGTERM) it prints one line
``perfbench-report <json>`` with the server's failure counters, its
resolved codec backend, workers and shards, its peak RSS, buffer-pool
stats and, when traced, the span ledger.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _vm_hwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    if len(argv) != 2 or argv[0] != "--trace" or argv[1] not in ("0", "1"):
        print("usage: launcher.py --trace 0|1", file=sys.stderr)
        return 2
    traced = argv[1] == "1"

    import repro.serve
    from repro.io import cli

    servers = []

    class CapturedServer(repro.serve.TransferServer):
        """The CLI's server, kept so its counters can be read after drain."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)

    repro.serve.TransferServer = CapturedServer

    ledger = None
    loop_cpu: dict = {}
    if traced:
        import ledger as ledger_mod

        ledger = ledger_mod.Ledger(clock=time.thread_time)
        ledger_mod.install_daemon(ledger, loop_cpu)

    print(f"perfbench-pid {os.getpid()}", flush=True)
    rc = cli.main(["serve"])
    if len(servers) != 1:
        print(f"expected one server, saw {len(servers)}", file=sys.stderr)
        return 1
    server = servers[0]
    times = os.times()
    report = {
        "rc": rc,
        "flows_accepted": server.flows_accepted,
        "flows_completed": server.flows_completed,
        "flows_failed": server.flows_failed,
        "flows_rejected": server.flows_rejected,
        "internal_errors": server.internal_errors,
        "internal_error_sites": dict(server.internal_error_sites),
        "backend": server.codec_backend,
        "workers": server.codec_workers,
        "shards": server.codec_shards,
        "buffer_pool": server.buffer_pool.stats(),
        "vm_hwm_kb": _vm_hwm_kb(),
        "cpu_s": times.user + times.system,
        "loop_cpu_s": loop_cpu.get("seconds"),
        "ledger": ledger.totals() if ledger is not None else None,
    }
    print("perfbench-report " + json.dumps(report), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
