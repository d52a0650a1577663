"""``aspectcast`` command line: staged access to the review-to-forecast pipeline."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import features as features_mod
from .models import SPECS, ForecasterSpec, fit_spec, model_from_json, model_to_json, predict_with
from .pipeline import (PipelineConfig, StageError, build_features, build_matrix, load_inputs,
                       read_input, run_pipeline, score_reviews)
from .schema import json_object


def _load_config(args) -> PipelineConfig:
    overrides = {
        "out": getattr(args, "out", None),
        "seed": getattr(args, "seed", None),
        "aspects": getattr(args, "aspects", None),
    }
    if getattr(args, "no_lag", False):
        overrides["include_lag"] = False
    if getattr(args, "config", None):
        return PipelineConfig.from_file(args.config, overrides)
    return PipelineConfig.from_dict({}, overrides)


def _read_features(args) -> features_mod.FeatureMatrix:
    return read_input(args.command, args.features, features_mod.FeatureMatrix.from_csv)


def _write(out_dir: Path, name: str, data: bytes) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_bytes(data)
    print(f"wrote {path}", file=sys.stderr)
    return path


def cmd_ingest(args) -> None:
    cfg = _load_config(args)
    reviews, revenue, _, _, _ = load_inputs(cfg)
    reviews = list(reviews)
    _write(cfg.out_dir, "reviews.jsonl", corpus_mod.reviews_to_jsonl(reviews))
    _write(cfg.out_dir, "revenue.csv", corpus_mod.csv_bytes(
        ["quarter", "revenue"], ([str(q), repr(v)] for q, v in zip(revenue.quarters, revenue.values))))
    print(f"{len(reviews)} reviews, {len(revenue)} revenue quarters", file=sys.stderr)


def cmd_sentiment(args) -> None:
    cfg = _load_config(args)
    reviews, _, _, lexicon, heuristics = load_inputs(cfg)
    reviews = list(reviews)
    scores = score_reviews(reviews, lexicon, heuristics)
    _write(cfg.out_dir, "sentiment.csv", corpus_mod.csv_bytes(
        ["id", "quarter", "pos", "neu", "neg", "compound"],
        ([review.id, str(review.quarter),
          f"{s.positive:.6f}", f"{s.neutral:.6f}", f"{s.negative:.6f}", f"{s.compound:.6f}"]
         for review, s in zip(reviews, scores))))


def cmd_features(args) -> None:
    cfg = _load_config(args)
    matrix = build_matrix(cfg, *build_features(*load_inputs(cfg)))
    _write(cfg.out_dir, "features.csv", matrix.to_csv())


def cmd_fit(args) -> None:
    cfg = _load_config(args)
    matrix = _read_features(args)
    try:
        params = json_object(args.params.encode(), "--params") if args.params else {}
    # an argument that is not UTF-8 holds lone surrogates, which do not encode
    except (json.JSONDecodeError, UnicodeEncodeError) as e:
        raise StageError("fit", f"--params: malformed JSON ({e})") from None
    except RecursionError:  # json's decoder recurses once per level of nesting
        raise StageError("fit", "--params nested too deeply to parse") from None
    # not make(**params): a param named like one of make's arguments is an unknown key
    spec = ForecasterSpec(kind=args.kind, label=args.kind, seed=cfg.seed,
                          params=tuple(sorted(params.items())))
    try:
        model = fit_spec(spec, matrix)
    except Exception as e:
        raise StageError("fit", str(e)) from None
    _write(cfg.out_dir, f"model_{args.kind}.json", model_to_json(model))


def cmd_predict(args) -> None:
    cfg = _load_config(args)
    model = read_input("predict", args.model, model_from_json)
    matrix = _read_features(args)
    try:
        predicted = predict_with(model, matrix)
    except Exception as e:
        raise StageError("predict", str(e)) from None
    _write(cfg.out_dir, "predictions.csv", corpus_mod.csv_bytes(
        ["quarter", "predicted"],
        ([str(q), f"{float(v):.{eval_mod.REPORT_DECIMALS}f}"] for q, v in zip(matrix.quarters, predicted))))


def cmd_evaluate(args) -> None:
    cfg = _load_config(args)
    matrix = _read_features(args)

    predicted = read_input("evaluate", args.predictions, lambda data: {
        quarter: value for _, quarter, (value,) in corpus_mod.quarter_rows(data, ["predicted"])[1]})
    missing = [str(q) for q in matrix.quarters if q not in predicted]
    if missing:
        raise StageError("evaluate", f"predictions missing quarters: {missing}")
    row = eval_mod.score_row(args.label, matrix, [predicted[q] for q in matrix.quarters])
    report = eval_mod.EvalReport(rows=[row])
    _write(cfg.out_dir, "report.csv", eval_mod.emit_report_csv(report))
    _write(cfg.out_dir, "report.json", eval_mod.emit_report_json(report))


def cmd_pipeline(args) -> None:
    cfg = _load_config(args)
    report = run_pipeline(cfg)
    _write(cfg.out_dir, "report.csv", eval_mod.emit_report_csv(report))
    _write(cfg.out_dir, "report.json", eval_mod.emit_report_json(report))
    _write(cfg.out_dir, "plot_data.csv", eval_mod.emit_plot_csv(report))


@functools.cache  # built once per process; each parse_args fills a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspectcast",
        description="Aspect-level review sentiment features and revenue-growth forecasting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, desc, seed=False, matrix=False):
        # each command takes only the overrides it reads
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default: out)")
        if seed:
            p.add_argument("--seed", type=int, help="seed for stochastic fits")
        if matrix:
            p.add_argument("--aspects", choices=["13", "16"], help="aspect set")
            p.add_argument("--no-lag", action="store_true", dest="no_lag",
                           help="drop the lagged-growth feature column")
        p.set_defaults(fn=fn)
        return p

    command("ingest", cmd_ingest, "validate inputs and write normalized copies")
    command("sentiment", cmd_sentiment, "write per-review sentiment scores")
    command("features", cmd_features, "write the perception feature matrix", matrix=True)
    command("pipeline", cmd_pipeline, "run the full backtest and write reports", seed=True, matrix=True)

    p = command("fit", cmd_fit, "fit one model on a feature CSV", seed=True)
    p.add_argument("--features", required=True)
    p.add_argument("--kind", required=True, choices=list(SPECS))
    p.add_argument("--params", help="JSON object of model hyperparameters")

    p = command("predict", cmd_predict, "predict a feature CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)

    p = command("evaluate", cmd_evaluate, "score predictions against a feature CSV's targets")
    p.add_argument("--features", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--label", default="model")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except StageError as e:
        print(f"error {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"error [{args.command}] {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
