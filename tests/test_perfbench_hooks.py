"""The benchmark's tracer wraps program functions by module attribute; every one must exist."""

import os
import subprocess
import sys
from pathlib import Path

import aspectcast

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import tracing
tracing.install(tracing.Tracer())
print("installed")
"""


def test_tracer_installs_in_a_fresh_interpreter():
    # `perfbench/run.py --trace 1` fails with AttributeError when a wrapped name is gone
    src = str(Path(aspectcast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", INSTALL], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"
