"""Run one workload's passes in a process of its own and report them as JSON.

    python3 perfbench/worker.py --workload W --inputs DIR --out DIR --seconds S --trace 0|1

Run from the checkout root with ``src`` on PYTHONPATH; ``run.py`` starts it.
The process moves round its CPUs while passes run (``cpus.rotate``).
One untimed warm-up pass comes first. Timed passes then run one after
another until the time budget is spent, and at least ``MIN_PASSES`` of them,
so that every run has more than one timed sample. With ``--trace 1`` the first
half of the budget runs untraced and the second half traced, so the tracing
overhead is measured in the same process. Every pass's reports are digested
for the correctness check, the warm-up's too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import cpus
import tracing
import workloads

REPORT_FILES = ("report.csv", "report.json", "plot_data.csv")
MIN_PASSES = 2


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every report file under ``out``, keyed by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.name in REPORT_FILES
    }


def report_rows(out: Path) -> int:
    return sum(max(0, len(p.read_text("utf-8").splitlines()) - 1) for p in out.rglob("report.csv"))


class Workload:
    """One workload on its generated inputs; ``run`` does one pass and returns its failed commands."""

    def __init__(self, name: str, inputs: Path, out: Path):
        self.name, self.out = name, out
        self.tracer: tracing.Tracer | None = None
        self.config = str(inputs / "config.json")
        staged = {"config": str(inputs / "staged.json"), "out": out / "staged"}
        self.commands = [[arg.format(**staged) for arg in argv] for argv in workloads.cli_commands()]

    def run(self) -> int:
        if self.name == "text-unique":
            return self._cli(["pipeline", "--config", self.config, "--out", str(self.out)])
        return self._sweep() + sum(self._cli(argv) for argv in self.commands)

    def _cli(self, argv: list[str]) -> int:
        import aspectcast.cli as cli

        if self.tracer is None:
            return int(cli.main(argv) != 0)
        with self.tracer.span(f"cli.{argv[0]}"):
            return int(cli.main(argv) != 0)

    def _sweep(self) -> int:
        import aspectcast.evaluation as evaluation
        from aspectcast.pipeline import PipelineConfig, StageError, run_pipeline

        try:
            report = run_pipeline(PipelineConfig.from_file(self.config))
        except StageError as e:
            print(f"model-sweep failed: {e}", file=sys.stderr)
            return 1
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "report.csv").write_bytes(evaluation.emit_report_csv(report))
        (self.out / "report.json").write_bytes(evaluation.emit_report_json(report))
        (self.out / "plot_data.csv").write_bytes(evaluation.emit_plot_csv(report))
        return 0


def timed_passes(workload: Workload, budget: float,
                 min_passes: int) -> tuple[list[float], list[dict], list[int], int]:
    """Run passes while the next one is expected to end within ``budget``
    seconds, give or take half a pass; at least ``min_passes``.

    Returns the pass times, each pass's report digests and report rows, and
    the number of failed commands.
    """
    times, digests, rows, failed = [], [], [], 0
    started = time.perf_counter()
    with cpus.rotate():
        while (len(times) < min_passes
               or time.perf_counter() - started + statistics.median(times) / 2 <= budget):
            shutil.rmtree(workload.out, ignore_errors=True)
            workload.out.mkdir(parents=True)
            tracer = workload.tracer
            if tracer is not None:
                tracer.run_id = len(times)
                with tracer.span("workload.pass"):
                    t0 = time.perf_counter()
                    failed += workload.run()
                    elapsed = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                failed += workload.run()
                elapsed = time.perf_counter() - t0
            times.append(elapsed)
            digests.append(output_digests(workload.out))
            rows.append(report_rows(workload.out))
    return times, digests, rows, failed


def rejected_reviews(inputs: Path) -> int:
    """Reviews the program's parser rejects (all of them when it raises)."""
    from aspectcast.corpus import CorpusError, parse_reviews

    data = (inputs / "reviews.jsonl").read_bytes()
    lines = sum(1 for line in data.splitlines() if line.strip())
    try:
        return lines - len(parse_reviews(data, "jsonl"))
    except CorpusError:
        return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import aspectcast.cli  # noqa: F401  (set-up happens before timing)

    workload = Workload(args.workload, args.inputs, args.out)
    budget = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else MIN_PASSES
    warmup, digests, rows, failed_commands = timed_passes(workload, 0, 1)
    untraced, more_digests, more_rows, more_failed = timed_passes(workload, budget, min_passes)
    digests += more_digests
    rows += more_rows
    failed_commands += more_failed
    result = {"warmup": warmup, "untraced": untraced}
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        tracer = tracing.Tracer()
        workload.tracer = tracer
        tracing.install(tracer)
        traced, more_digests, more_rows, more_failed = timed_passes(workload, budget, min_passes)
        digests += more_digests
        rows += more_rows
        failed_commands += more_failed
        spans_path = args.out.parent / "spans.jsonl"
        spans_path.unlink(missing_ok=True)
        tracer.write(spans_path)
        result["traced"] = traced
        result["spans"] = str(spans_path)
        result["layers"] = tracing.median_metrics(
            [tracing.pass_metrics(tracer.spans, run) for run in range(len(traced))]
        )

    result["digests"] = digests
    result["report_rows"] = rows
    result["failed_commands"] = failed_commands
    result["rejected_reviews"] = rejected_reviews(args.inputs) * len(digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
