"""scripts/bench_pairs.py's summary: quartiles per side and the change's pair wins."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(reviews_per_s, run_s, correct=True):
    return {"correct": correct, "failed": 0 if correct else 1, "attempted": 10,
            "metrics": {"reviews_per_s": reviews_per_s, "run_s": run_s}}


def test_summary_counts_wins_and_quartiles():
    rates = [(100, 110), (120, 130), (90, 90), (110, 100), (105, 140)]  # (parent, change)
    pairs = [{"runs": {"text-unique": {"parent": run(a, 1 / a), "change": run(b, 1 / b)}}} for a, b in rates]
    pairs.append({"runs": {"text-unique": {"parent": run(1, 1), "change": {"error": "exit 2"}}}})
    pairs[0]["runs"]["model-sweep"] = {"parent": run(5, 2.0), "change": run(5, 2.5, correct=False)}
    summary = bench_pairs.summarize(pairs, {"reviews_per_s": "higher", "run_s": "lower"})

    text = summary["text-unique"]
    assert (text["pairs"], text["all_correct"], text["failed"]) == (5, True, 0)  # the errored pair is left out
    rate = text["metrics"]["reviews_per_s"]
    assert (rate["wins"], rate["losses"]) == (3, 1)  # the tie counts for neither
    assert rate["parent"] == {"q1": 100, "median": 105, "q3": 110}
    assert rate["change"] == {"q1": 100, "median": 110, "q3": 130}
    seconds = text["metrics"]["run_s"]
    assert (seconds["wins"], seconds["losses"]) == (3, 1)  # lower is better
    sweep = summary["model-sweep"]
    assert (sweep["pairs"], sweep["all_correct"], sweep["failed"]) == (1, False, 1)
    assert sweep["metrics"]["run_s"]["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert (sweep["metrics"]["run_s"]["wins"], sweep["metrics"]["run_s"]["losses"]) == (0, 1)
    assert bench_pairs.seeds(["500-502", "4099"]) == [500, 501, 502, 4099]


def test_summary_lines_show_every_workload_and_metric():
    pairs = [{"runs": {w: {"parent": run(100, 0.5), "change": run(110, 0.4)} for w in bench_pairs.WORKLOADS}}]
    summary = bench_pairs.summarize(pairs, {"reviews_per_s": "higher", "run_s": "lower"})
    lines = bench_pairs.summary_lines("seeds", summary)
    assert len(lines) == 4
    assert lines[0] == ("seeds text-unique reviews_per_s (higher is better): parent 100 [100, 100] -> change 110; "
                        "won 1, lost 0 of 1 pairs; change/parent 1.1 [1.1, 1.1]")
    assert lines[3] == ("seeds model-sweep run_s (lower is better): parent 0.5 [0.5, 0.5] -> change 0.4; "
                        "won 1, lost 0 of 1 pairs; change/parent 0.8 [0.8, 0.8]")
    assert bench_pairs.summary_lines("held-out", bench_pairs.summarize([], {"run_s": "lower"}))[0] == (
        "held-out text-unique run_s (lower is better): parent - [-, -] -> change -; won 0, lost 0 of 0 pairs; "
        "change/parent - [-, -]")


def test_summary_ratios_per_pair():
    # (parent, change) per pair; a pair with a parent of 0 has no ratio
    rates = [(100, 110), (200, 180), (50, 60), (100, 100), (0, 5)]
    pairs = [{"runs": {"text-unique": {"parent": run(a, 1.0), "change": run(b, 1.0)}}} for a, b in rates]
    rate = bench_pairs.summarize(pairs, {"reviews_per_s": "higher"})["text-unique"]["metrics"]["reviews_per_s"]
    assert rate["ratios"] == [1.1, 0.9, 1.2, 1.0, None]
    assert rate["ratio"] == {"q1": 0.975, "median": 1.05, "q3": 1.125}
