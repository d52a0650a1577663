"""aspectcast benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload text-unique --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. Inputs are generated from ``--seed`` into
``.perfbench/`` and the program only reads those files. Set-up is measured in
fresh interpreters, the workload in a worker process (``worker.py``) with one
thread. Report digests are checked against ``pins.json``; a mismatch is a
failed operation and the command exits non-zero. The last line of standard
output is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
DEADLINE_S = 170.0          # every run ends well inside the 180 s limit
SETUP_PROBES = (4, 3)       # fresh interpreters timed before and after the workload

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}
os.environ.update(THREAD_ENV)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "reviews_per_s": "1/s",
    "backtests_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, worker crash)."""


def child_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a process in its own group; on timeout kill the whole group and wait."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[1]).name} timed out") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_probes(env: dict, count: int, timeout: float) -> list[dict]:
    """Time ``count`` fresh interpreters from outside, with their own phase times."""
    probes = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, str(HERE / "setup_probe.py")], env, timeout)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
        probe = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        probe["wall_s"] = wall
        probes.append(probe)
    return probes


def expected_digests(pins: dict, workload: str, seed: int) -> dict | None:
    if workload == "text-unique":
        return pins["digests"]["text-unique"].get(str(workloads.corpus_seed(seed)))
    return pins["digests"][workload]


def digest_mismatches(observed: dict, expected: dict) -> list[str]:
    """Report files whose digest differs from the pin, or that are missing or extra."""
    return sorted(name for name in set(observed) | set(expected)
                  if observed.get(name) != expected.get(name))


def wrong_output_caught(out: Path, expected: dict) -> bool:
    """Feed the digest check a wrong pin, then a report altered on disk; it must flag each."""
    name = sorted(expected)[0]
    wrong_pin = dict(expected, **{name: "0" * 64})
    if name not in digest_mismatches(worker.output_digests(out), wrong_pin):
        return False
    path = out / name
    original = path.read_bytes()
    try:
        path.write_bytes(original + b"\n")
        return name in digest_mismatches(worker.output_digests(out), expected)
    finally:
        path.write_bytes(original)


def check_grid(pins: dict) -> list[str]:
    """The sweep grid and command list must be exactly the pinned ones."""
    problems = []
    if workloads.sweep_specs() != pins["sweep_specs"]:
        problems.append("model-sweep spec grid differs from pins.json")
    if workloads.cli_commands() != pins["cli_commands"]:
        problems.append("staged CLI command list differs from pins.json")
    return problems


def environment(root: Path) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "threads": THREAD_ENV,
    }


def work_dir(root: Path, workload: str, trace: int) -> Path:
    return root / ".perfbench" / f"{workload}-t{trace}"


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: int,
               deadline: float) -> tuple[dict, dict]:
    """Generate the inputs and run the worker; returns the input properties and its result."""
    work = work_dir(root, workload, trace)
    props = workloads.generate(workload, seed, root, work / "inputs")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(work / "inputs"), "--out", str(work / "out"),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = run_child(cmd, child_env(root), deadline - time.monotonic())
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
    return props, json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    pins = json.loads(PINS.read_text("utf-8"))
    env = child_env(root)
    before, after = SETUP_PROBES
    probes = setup_probes(env, before, deadline - time.monotonic())
    props, result = run_worker(root, workload, seed, seconds, trace, deadline)
    probes += setup_probes(env, after, deadline - time.monotonic())

    # correctness: pinned digests, full reports, no failed commands
    expected = expected_digests(pins, workload, seed)
    passes = len(result["digests"])
    problems = check_grid(pins)
    mismatched_files = 0
    if expected is None:
        problems.append(f"pins.json has no digests for {workload} seed {seed}")
        mismatched_files = sum(len(observed) for observed in result["digests"])
    else:
        for i, observed in enumerate(result["digests"]):
            bad = digest_mismatches(observed, expected)
            mismatched_files += len(bad)
            if bad:
                problems.append(f"pass {i}: report digests differ from pins.json: {', '.join(bad)}")
        if not wrong_output_caught(work_dir(root, workload, trace) / "out", expected):
            problems.append("the digest check does not catch a wrong report")
    missing_rows = sum(max(0, props["specs"] - rows) for rows in result["report_rows"])
    if missing_rows:
        problems.append(f"{missing_rows} model rows missing from the reports")
    if result["failed_commands"]:
        problems.append(f"{result['failed_commands']} commands failed")
    if result["rejected_reviews"]:
        problems.append(f"{result['rejected_reviews']} reviews rejected")

    commands = 1 + len(workloads.cli_commands()) if workload == "model-sweep" else 1
    attempted = passes * (props["reviews"] + props["specs"] + commands + len(result["digests"][0]))
    failed = (result["rejected_reviews"] + missing_rows + result["failed_commands"]
              + mismatched_files)

    run_s = statistics.median(result["untraced"])
    metrics = {
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "run_s": run_s,
        "reviews_per_s": props["reviews"] / run_s,
        "backtests_per_s": props["specs"] / run_s,
        "peak_rss_mib": result["peak_rss_mib"],
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed, "ops_failed_ratio": failed / attempted,
        "setup_probes_s": [p["wall_s"] for p in probes],
        "inputs": props, "warmup_s": result["warmup"][0], "passes_untraced": result["untraced"],
        "metrics": metrics, "environment": environment(root),
    }
    if trace:
        layers = dict(result["layers"])
        layers["setup.import_ms"] = statistics.median(p["import_ms"] for p in probes)
        layers["setup.resources_ms"] = statistics.median(p["resources_ms"] for p in probes)
        layers["trace.overhead_ratio"] = statistics.median(result["traced"]) / run_s
        report["passes_traced"] = result["traced"]
        report["layers"] = layers
        report["spans"] = result["spans"]
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload}-s{seed}-t{trace}-{stamp}.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"correct {report['correct']}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    for name, value in report["metrics"].items():
        print(f"  {name:<34} {value:>14.6f} {END_TO_END[name]}")
    print(f"  {'ops_failed_ratio':<34} {report['ops_failed_ratio']:>14.6f} ratio"
          f"  ({report['failed']} of {report['attempted']})")
    units = tracing.layer_units()
    for name, value in report.get("layers", {}).items():
        print(f"  {name:<34} {value:>14.6f} {units[name]}")


def result_line(reports: list[dict], trace: int) -> dict:
    metrics = {}
    units = tracing.layer_units() if trace else END_TO_END
    prefix = len(reports) > 1
    for report in reports:
        source = report["layers"] if trace else report["metrics"]
        for name, value in source.items():
            key = f"{report['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "aspectcast" / "cli.py").is_file():
        print(f"error: no aspectcast sources under {root / 'src'}; run from the checkout root",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_one(root, name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for report in reports:
        print_report(report)
    line = result_line(reports, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
