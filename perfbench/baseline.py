"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/baseline.py --workloads text-unique model-sweep --seeds 0-9
    python3 perfbench/baseline.py --seeds 0-9 --traced-seeds 0 --write

Each run is the exact command in BENCHMARK.json, one process per seed. For
every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound. ``--write`` records the
summary, the traced per-layer medians, the measured input properties and the
environment in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads

BENCHMARK = Path("BENCHMARK.json")
BASELINE = run.HERE / "baseline.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    line = json.loads(lines[-1])
    print(f"  {workload} seed {seed} trace {trace}: {took:.1f} s, correct {line['correct']}, "
          f"failed {line['failed']} of {line['attempted']}", flush=True)
    return line


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values)}


def latest_result(workload: str, seed: int, trace: int) -> dict:
    files = sorted((Path(".perfbench") / "results").glob(f"{workload}-s{seed}-t{trace}-*.json"))
    return json.loads(files[-1].read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="0-9", help="inclusive range, such as 0-9")
    parser.add_argument("--traced-seeds", default=None, help="seeds for traced runs (none by default)")
    parser.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args()
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        lines = [run_once(bench, workload, seed, 0) for seed in seed_range(args.seeds)]
        entry = {"why": workloads.WHY[workload], "seeds": seed_range(args.seeds), "metrics": {}}
        for name, bound in bounds.items():
            stats = summarize([line["metrics"][name]["value"] for line in lines])
            stats["unit"] = lines[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            print(f"{workload:<13} {name:<16} median {stats['median']:12.5f} "
                  f"q1 {stats['q1']:12.5f} q3 {stats['q3']:12.5f} "
                  f"spread {stats['spread']:.4f} (bound {bound})")
        entry["all_correct"] = all(line["correct"] for line in lines)
        entry["ops_failed_ratio"] = sum(l["failed"] for l in lines) / sum(l["attempted"] for l in lines)
        if args.traced_seeds is not None:
            traced = [run_once(bench, workload, seed, 1)["metrics"]
                      for seed in seed_range(args.traced_seeds)]
            entry["layers"] = {name: {"median": statistics.median(t[name]["value"] for t in traced),
                                      "unit": traced[0][name]["unit"]} for name in traced[0]}
        last = latest_result(workload, seed_range(args.seeds)[-1], 0)
        entry["inputs"] = last["inputs"]
        if "layers" in entry:
            entry["inputs"]["no_aspect_share"] = 1 - entry["layers"]["aspects.matched_share"]["median"]
        summary[workload] = entry
        environment = last["environment"]

    if args.write:
        baseline = {
            "environment": environment,
            "run_seconds": bench["run_seconds"],
            "held_out_seed": workloads.HELD_OUT_SEED,
            "workloads": summary,
        }
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
