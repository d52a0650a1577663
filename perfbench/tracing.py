"""Outside-in tracing of the program's layers, and the per-layer metrics derived from it.

The program is not changed: each public function is wrapped at the module
attribute its caller looks up, so every call records a span (name, start,
end, parent, run id). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path

from workloads import KINDS

# Span record fields, in order.
NAME, START, END, PARENT, RUN, ATTRS = range(6)

_PREDICT_KIND = {"LinearModel": "lr", "MlpModel": "mlp", "SvrModel": "svr", "ArimaModel": "arima"}
CLI_COMMANDS = ("ingest", "sentiment", "features", "fit", "predict", "evaluate", "pipeline")


class Tracer:
    """Collects spans from wrapped functions; one tracer per process."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, attrs=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``attrs(args, result)`` gives the span's attributes after the clock
        stops, with ``result`` None when the call raised.
        """
        original = getattr(owner, attr)
        is_classmethod = isinstance(owner, type) and isinstance(owner.__dict__.get(attr), classmethod)

        def wrapper(*args, **kwargs):
            record = self._open(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(record)
                record[ATTRS] = dict(attrs(args, None) if attrs else {}, error=True)
                raise
            self._close(record)
            if attrs:
                record[ATTRS] = attrs(args, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_classmethod else wrapper)

    def write(self, path: Path) -> None:
        """Append the spans to ``path``, one JSON list per line."""
        with open(path, "a", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _count_records(data: bytes) -> int:
    return sum(1 for line in data.splitlines() if line.strip())


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the already importable ``aspectcast`` package."""
    import aspectcast.aspects as aspects
    import aspectcast.cli as cli
    import aspectcast.corpus as corpus
    import aspectcast.evaluation as evaluation
    import aspectcast.features as features
    import aspectcast.models.arima as arima
    import aspectcast.models.mlp as mlp
    import aspectcast.optimize as optimize
    import aspectcast.pipeline as pipeline
    import aspectcast.sentiment as sentiment

    def fit_name(args):
        return f"models.fit.{args[0].kind}"

    def predict_name(args):
        return f"models.predict.{_PREDICT_KIND.get(type(args[0]).__name__, 'other')}"

    w = tracer.wrap
    w(corpus, "parse_reviews", "corpus.parse_reviews",
      lambda a, r: {"lines": _count_records(a[0]), "parsed": len(r) if r is not None else 0})
    # pipeline.sentiment_mod and pipeline.aspects_mod are these modules
    w(sentiment, "analyze", "sentiment.analyze", lambda a, r: {"tokens": len(a[0].split())})
    w(aspects, "match_aspects", "aspects.match_aspects",
      lambda a, r: {"matches": len(r) if r is not None else 0})
    for owner in (pipeline, cli):
        w(owner, "score_reviews", "pipeline.score_reviews")
    w(pipeline, "build_perceptions", "pipeline.build_perceptions")
    w(pipeline, "backtest", "evaluation.backtest")
    w(features, "assemble", "features.assemble")
    w(features, "revenue_growth", "features.revenue_growth")
    w(features.FeatureMatrix, "to_csv", "features.to_csv")
    w(features.FeatureMatrix, "from_csv", "features.from_csv")
    for owner in (evaluation, cli):
        w(owner, "fit_spec", fit_name)
        w(owner, "predict_with", predict_name)
    w(evaluation, "forecast_arima", "models.predict.arima")
    for emitter in ("emit_report_csv", "emit_report_json", "emit_plot_csv"):
        w(evaluation, emitter, "evaluation.emit")
    w(cli, "model_to_json", "models.serialize")
    w(cli, "model_from_json", "models.serialize")
    # lm_minimize looks lm_step up in optimize; the MLP holds its own reference
    w(mlp, "lm_step", "optimize.lm_step")
    w(optimize, "lm_step", "optimize.lm_step")
    w(arima, "lm_minimize", "optimize.lm_minimize")
    w(arima, "numeric_jacobian", "optimize.numeric_jacobian")


def read_spans(path: Path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def pass_metrics(spans: list[list], run_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the spans sharing ``run_id``)."""
    durations: dict[str, list[float]] = {}
    child_ns = [0] * len(spans)
    own = [s for s in spans if s[RUN] == run_id]
    for s in own:
        durations.setdefault(s[NAME], []).append(s[END] - s[START])
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    self_ns: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s[RUN] == run_id:
            self_ns[s[NAME]] = self_ns.get(s[NAME], 0) + (s[END] - s[START]) - child_ns[i]

    def busy_ms(name):
        return sum(durations.get(name, ())) / 1e6

    def calls(name):
        return len(durations.get(name, ()))

    def attr_sum(name, key):
        return sum((s[ATTRS] or {}).get(key, 0) for s in own if s[NAME] == name)

    m: dict[str, float] = {}
    parsed = attr_sum("corpus.parse_reviews", "parsed")
    m["corpus.parse_reviews.us_per_review"] = busy_ms("corpus.parse_reviews") * 1e3 / max(parsed, 1)
    m["corpus.reviews_parsed"] = parsed
    m["corpus.reviews_rejected"] = attr_sum("corpus.parse_reviews", "lines") - parsed

    analyzed = calls("sentiment.analyze")
    sent = sorted(d / 1e3 for d in durations.get("sentiment.analyze", ()))
    m["sentiment.analyze.calls"] = analyzed
    m["sentiment.analyze.us_per_review"] = busy_ms("sentiment.analyze") * 1e3 / max(analyzed, 1)
    m["sentiment.analyze.p50_us"] = _percentile(sent, 0.5)
    m["sentiment.analyze.p99_us"] = _percentile(sent, 0.99)
    m["sentiment.tokens_per_review"] = attr_sum("sentiment.analyze", "tokens") / max(analyzed, 1)

    matched = calls("aspects.match_aspects")
    match = sorted(d / 1e3 for d in durations.get("aspects.match_aspects", ()))
    m["aspects.match_aspects.us_per_review"] = busy_ms("aspects.match_aspects") * 1e3 / max(matched, 1)
    m["aspects.match_aspects.p99_us"] = _percentile(match, 0.99)
    m["aspects.matches_per_review"] = attr_sum("aspects.match_aspects", "matches") / max(matched, 1)
    m["aspects.matched_share"] = sum(
        1 for s in own if s[NAME] == "aspects.match_aspects" and (s[ATTRS] or {}).get("matches")
    ) / max(matched, 1)

    m["pipeline.score_reviews.self_ms"] = self_ns.get("pipeline.score_reviews", 0) / 1e6
    m["pipeline.build_perceptions.self_ms"] = self_ns.get("pipeline.build_perceptions", 0) / 1e6
    m["features.assemble.ms"] = busy_ms("features.assemble")
    m["features.revenue_growth.ms"] = busy_ms("features.revenue_growth")

    for kind in KINDS:
        m[f"models.fit.{kind}.ms"] = busy_ms(f"models.fit.{kind}")
        m[f"models.fit.{kind}.calls"] = calls(f"models.fit.{kind}")
        m[f"models.predict.{kind}.ms"] = busy_ms(f"models.predict.{kind}")
    m["models.fit.failed"] = sum(
        1 for s in own if s[NAME].startswith("models.fit.") and (s[ATTRS] or {}).get("error")
    )
    for name in ("lm_minimize", "lm_step", "numeric_jacobian"):
        m[f"optimize.{name}.calls"] = calls(f"optimize.{name}")
    m["evaluation.backtest.self_ms"] = self_ns.get("evaluation.backtest", 0) / 1e6
    m["evaluation.emit.ms"] = busy_ms("evaluation.emit")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.ms"] = busy_ms(f"cli.{command}")
    m["models.serialize.ms"] = busy_ms("models.serialize")
    m["features.csv_roundtrip.ms"] = busy_ms("features.to_csv") + busy_ms("features.from_csv")

    wall = busy_ms("workload.pass")
    text_ms = sum(busy_ms(n) for n in ("corpus.parse_reviews", "sentiment.analyze",
                                       "aspects.match_aspects"))
    m["trace.text_share"] = text_ms / wall if wall else 0.0
    m["trace.models_fit_share"] = sum(busy_ms(f"models.fit.{k}") for k in KINDS) / wall if wall else 0.0
    return m


def layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in report order."""
    names = list(pass_metrics([], 0)) + ["setup.import_ms", "setup.resources_ms",
                                         "trace.overhead_ratio"]
    units = {}
    for name in names:
        last = name.rsplit(".", 1)[-1]
        if last in ("ms", "self_ms", "import_ms", "resources_ms"):
            units[name] = "ms"
        elif last.endswith("_us") or last == "us_per_review":
            units[name] = "us"
        elif last in ("calls", "failed", "reviews_parsed", "reviews_rejected",
                      "tokens_per_review", "matches_per_review"):
            units[name] = "count"
        else:
            units[name] = "ratio"
    return units


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
