"""Pin the reference outputs the benchmark checks: write ``perfbench/pins.json``.

    python3 perfbench/pin.py

Run from the checkout root on the commit whose outputs are the reference.
Each workload runs one pass; ``text-unique`` runs seeds
0..``workloads.PINNED_SEEDS``-1 and ``workloads.HELD_OUT_SEED``. The file also
pins the model-sweep spec grid and its staged CLI command list, so that
changing either shows as a failed check.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import run
import workloads
import worker


def bundled_digests(root: Path) -> dict:
    """Report digests of ``aspectcast pipeline`` on the bundled corpus."""
    out = root / ".perfbench" / "pin-bundled"
    proc = run.run_child([sys.executable, "-m", "aspectcast.cli", "pipeline", "--out", str(out)],
                         run.child_env(root), 120)
    if proc.returncode != 0:
        raise SystemExit(f"bundled pipeline failed: {proc.stderr.decode()[-500:]}")
    return worker.output_digests(out)


def one_pass(root: Path, workload: str, seed: int) -> dict:
    _, result = run.run_worker(root, workload, seed, 0, 0, time.monotonic() + 170)
    if result["failed_commands"] or result["rejected_reviews"]:
        raise SystemExit(f"{workload} seed {seed}: operations failed, nothing pinned")
    return result["digests"][0]


def main() -> int:
    root = Path.cwd()

    bundled = bundled_digests(root)
    digests = {"model-sweep": one_pass(root, "model-sweep", 0)}
    staged = {name.split("/", 2)[2]: d for name, d in digests["model-sweep"].items()
              if name.startswith("staged/pipeline/")}
    if staged != bundled:
        raise SystemExit("staged pipeline reports differ from the bundled corpus's reports")
    seeds = [*range(workloads.PINNED_SEEDS), workloads.HELD_OUT_SEED]
    digests["text-unique"] = {str(seed): one_pass(root, "text-unique", seed) for seed in seeds}

    pins = {
        "bundled_digests": bundled,
        "digests": digests,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "sweep_specs": workloads.sweep_specs(),
        "cli_commands": workloads.cli_commands(),
    }
    run.PINS.write_text(json.dumps(pins, indent=1) + "\n", "utf-8")
    print(f"wrote {run.PINS} ({len(seeds)} text-unique seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
