"""Check the benchmark's pinned report digests for every pinned corpus, in one process.

    python3 scripts/check_pins.py

Recomputes the report digests of ``model-sweep`` (its ``staged/`` reports
included) and of every pinned ``text-unique`` corpus (seeds 0-63 and the
held-out seed), and compares them with ``perfbench/pins.json``. The inputs
and passes come from perfbench's own ``workloads.generate`` and
``worker.Workload``, which are only imported, never changed, under the
benchmark's one-thread BLAS settings. A benchmark run checks the one corpus
its seed selects; this checks them all. Exits 1 and names every mismatch.
The full check takes about three minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# run sets the benchmark's one-thread BLAS environment, which must come before
# NumPy loads: a multithreaded BLAS rounds some fits differently
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def report_digests(workload: str, seed: int, work: Path) -> tuple[dict, str]:
    """Report digests of one pass of ``workload`` on the inputs of ``seed``,
    and the pass's stderr when a command failed (else "")."""
    inputs, out = work / "inputs", work / "out"
    workloads.generate(workload, seed, ROOT, inputs)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        failed = worker.Workload(workload, inputs, out).run()
    return worker.output_digests(out), log.getvalue() if failed else ""


def mismatches(name: str, pinned: dict, got: dict) -> list[str]:
    """One line per report whose digest differs from its pin, or is missing on either side."""
    return [f"{name}: {report} pinned {pinned.get(report)} got {got.get(report)}"
            for report in sorted(pinned.keys() | got.keys())
            if pinned.get(report) != got.get(report)]


def main() -> int:
    pins = json.loads(run.PINS.read_text("utf-8"))["digests"]
    seeds = [*range(workloads.PINNED_SEEDS), workloads.HELD_OUT_SEED]
    runs = [("model-sweep", 0, pins["model-sweep"])]
    runs += [("text-unique", seed, pins["text-unique"][str(seed)]) for seed in seeds]
    bad, failing = [], 0
    with tempfile.TemporaryDirectory() as work:
        for workload, seed, pinned in runs:
            name = workload if workload == "model-sweep" else f"{workload} seed {seed}"
            got, failed = report_digests(workload, seed, Path(work))
            found = mismatches(name, pinned, got)
            if failed:
                found.append(f"{name}: a command failed\n{failed[-2000:]}")
            print(f"{name}: {'MISMATCH' if found else 'ok'}", flush=True)
            bad += found
            failing += bool(found)
    for line in bad:
        print(line, file=sys.stderr)
    print(f"{len(runs) - failing} of {len(runs)} pinned workloads match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
