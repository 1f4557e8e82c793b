"""The programs run on the standard library alone.

``repro`` declares no runtime dependency.  Importing the modules behind
the console scripts, the experiments, the simulator fleet, the serve
daemon and Nephele in a fresh interpreter must therefore load nothing
from outside the standard library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

PROGRAM_MODULES = (
    "repro.io.cli",
    "repro.experiments.runner",
    "repro.sim.fleet",
    "repro.serve",
    "repro.nephele",
)

PROBE = f"""
import json, sys
before = set(sys.modules)
for name in {PROGRAM_MODULES!r}:
    __import__(name)
added = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(json.dumps(sorted(added)))
"""


def test_program_imports_load_only_repro_and_the_standard_library():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "repro" in added
    foreign = sorted(added - {"repro"} - set(sys.stdlib_module_names))
    assert not foreign, f"imports outside the standard library: {foreign}"
