"""Benchmark a parent commit against this checkout in alternating pairs and record every run.

    python3 scripts/bench_pairs.py --parent HEAD~1 --seeds 600-609 --held-out 4099 4099 \
        --out BENCH_<n>.json

Each seed makes one pair: ``perfbench/run.py --workload W --seed S --seconds 36``
on both sides for each workload, the side that runs first alternating from
pair to pair. The parent side is the parent commit's files, unpacked with
``git archive`` into a temporary directory that is removed at the end, also
when the script is stopped with SIGTERM; the change side is this checkout as
it stands. Both run their own copy of ``perfbench/``, so the script refuses
to start when the checkout's ``perfbench/`` or ``BENCHMARK.json`` differs
from the parent's: the two sides would run two benchmarks. The record lists the checkout's uncommitted files
under ``src/`` and ``perfbench/``, untracked ones included.

The record holds the commit pair, the seeds, each pair's order, and every
run's end-to-end metrics with its ``correct``, ``failed`` and ``attempted``.
Its summary gives, per workload and metric, each side's median and quartiles,
the pairs the change won and lost (ties count for neither), and each pair's
change/parent ratio with the ratios' median and quartiles, once over
the ``--seeds`` pairs and once over the ``--held-out`` pairs. A run that
fails outright is recorded with its error, and its pair counts in no summary.
At the end the script prints one line per workload and metric of each
summary that holds a pair.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("text-unique", "model-sweep")
RUN_SECONDS = 36  # BENCHMARK.json's run_seconds: every run on both sides lasts this long
RUN_TIMEOUT_S = 600


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def unpack(commit: str, into: Path) -> None:
    """The files of ``commit`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def kill(proc: subprocess.Popen) -> None:
    """Kill ``proc``'s process group and the group of each child it started in
    a session of its own, as ``run.py`` starts its worker and set-up probes."""
    children = []
    with contextlib.suppress(OSError):  # it has ended, or the kernel does not list children
        os.killpg(proc.pid, signal.SIGSTOP)  # so that it starts no child from here on
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children").read_text().split()
    for group in [*map(int, children), proc.pid]:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(group, signal.SIGKILL)


def bench(root: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its result line, or the error that stopped it.

    The run has a session of its own, and is killed with its children when it
    times out or when this script is stopped while it runs.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stdout = None
        finally:
            if proc.returncode is None:  # timed out, or this script is being stopped
                kill(proc)
    if stdout is None:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {stderr[-1000:]}"}
    return {"correct": line["correct"], "failed": line["failed"], "attempted": line["attempted"],
            "metrics": {name: m["value"] for name, m in line["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles; with fewer than two values, the one value (or None) for all three."""
    if len(values) < 2:
        value = values[0] if values else None
        return {"q1": value, "median": value, "q3": value}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric over ``pairs``: each side's quartiles and the change's wins and losses.

    ``better`` maps each metric to ``"higher"`` or ``"lower"``. A pair where
    either run failed outright is left out.
    """
    summary = {}
    for workload in WORKLOADS:
        runs = [(p["runs"][workload]["parent"], p["runs"][workload]["change"]) for p in pairs
                if workload in p["runs"]]
        runs = [(a, b) for a, b in runs if "error" not in a and "error" not in b]
        metrics = {}
        for name, direction in better.items():
            sign = 1 if direction == "higher" else -1
            parent = [a["metrics"][name] for a, _ in runs]
            change = [b["metrics"][name] for _, b in runs]
            ratios = [b / a if a else None for a, b in zip(parent, change)]  # a parent 0 has no ratio
            metrics[name] = {
                "better": direction,
                "parent": quartiles(parent),
                "change": quartiles(change),
                "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
                "losses": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
                "ratios": ratios,
                "ratio": quartiles([r for r in ratios if r is not None]),
            }
        summary[workload] = {"pairs": len(runs), "all_correct": all(a["correct"] and b["correct"] for a, b in runs),
                             "failed": sum(a["failed"] + b["failed"] for a, b in runs), "metrics": metrics}
    return summary


def summary_lines(name: str, summary: dict) -> list[str]:
    """``summarize``'s result as one line per workload and metric: both
    medians, the parent's quartiles, the pairs the change won and lost, and
    the median and quartiles of the pairs' change/parent ratios."""
    def g(value):
        return "-" if value is None else f"{value:.6g}"

    lines = []
    for workload, result in summary.items():
        for metric, m in result["metrics"].items():
            parent, change, ratio = m["parent"], m["change"], m["ratio"]
            lines.append(f"{name} {workload} {metric} ({m['better']} is better): parent {g(parent['median'])} "
                         f"[{g(parent['q1'])}, {g(parent['q3'])}] -> change {g(change['median'])}; "
                         f"won {m['wins']}, lost {m['losses']} of {result['pairs']} pairs; "
                         f"change/parent {g(ratio['median'])} [{g(ratio['q1'])}, {g(ratio['q3'])}]")
    return lines


def seeds(specs: list[str]) -> list[int]:
    """``["500-502", "4099"]`` -> ``[500, 501, 502, 4099]``."""
    out = []
    for spec in specs:
        first, _, last = spec.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare the checkout with")
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 500-509")
    parser.add_argument("--held-out", nargs="*", default=[], help="held-out seeds, summarized apart")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    # a stopped script still removes the parent's copy and kills the run in progress
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    parent = git("rev-parse", args.parent)
    if subprocess.run(["git", "diff", "--quiet", parent, "--", "perfbench", "BENCHMARK.json"], cwd=ROOT).returncode \
            or git("ls-files", "--others", "--exclude-standard", "--", "perfbench"):
        sys.exit(f"perfbench/ or BENCHMARK.json differs between {args.parent} and the checkout; "
                 "the two sides would run two benchmarks")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    record = {
        "parent": parent,
        "change": git("rev-parse", "HEAD"),
        "change_uncommitted_files": sorted({*git("diff", "--name-only", "HEAD", "--", "src", "perfbench").split(),
                                            *git("ls-files", "--others", "--exclude-standard", "--", "src",
                                                 "perfbench").split()}),
        "command": f"perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS} --trace 0",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()},
        "seeds": seeds(args.seeds),
        "held_out_seeds": seeds(args.held_out),
        "pairs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
        unpack(record["parent"], Path(parent_root))
        sides = {"parent": Path(parent_root), "change": ROOT}
        for i, seed in enumerate(record["seeds"] + record["held_out_seeds"]):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "held_out": i >= len(record["seeds"]), "order": list(order), "runs": {}}
            for workload in WORKLOADS:
                pair["runs"][workload] = {side: bench(sides[side], workload, seed)
                                          for side in order}
                shown = {side: run.get("metrics", {}).get("reviews_per_s", run.get("error"))
                         for side, run in pair["runs"][workload].items()}
                print(f"{time.strftime('%H:%M:%S')} pair {i} seed {seed} {workload}: {shown}", flush=True)
            record["pairs"].append(pair)
            args.out.write_text(json.dumps(record, indent=1) + "\n")  # a cut run keeps its pairs
    record["summary"] = {
        "seeds": summarize([p for p in record["pairs"] if not p["held_out"]], better),
        "held_out": summarize([p for p in record["pairs"] if p["held_out"]], better),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, summary in record["summary"].items():
        if any(result["pairs"] for result in summary.values()):
            print("\n".join(summary_lines(name, summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
