"""scripts/check_pins.py finds a report whose digest differs from its pin."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Loads the script in a fresh interpreter, where it sets the benchmark's
# one-thread BLAS environment before NumPy loads, then checks text-unique
# seed 0 against pins whose report.csv digest is tampered.
CHECK_SEED_0 = """
import importlib.util, json, sys, tempfile
from pathlib import Path
spec = importlib.util.spec_from_file_location("check_pins", sys.argv[1])
check_pins = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_pins)
pinned = json.loads(check_pins.run.PINS.read_text("utf-8"))["digests"]["text-unique"]["0"]
pinned["report.csv"] = "0" * 64
with tempfile.TemporaryDirectory() as work:
    got, failed = check_pins.report_digests("text-unique", 0, Path(work))
print(json.dumps([check_pins.mismatches("text-unique seed 0", pinned, got), failed]))
"""


def test_names_the_mismatched_report():
    done = subprocess.run([sys.executable, "-c", CHECK_SEED_0, str(ROOT / "scripts" / "check_pins.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    found, failed = json.loads(done.stdout.splitlines()[-1])
    assert failed == ""
    # only the tampered report differs: the others match their pins
    assert len(found) == 1
    assert found[0].startswith(f"text-unique seed 0: report.csv pinned {'0' * 64} got ")
