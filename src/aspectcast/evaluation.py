"""Forecast error metrics, backtesting, and report/plot-data emission."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import csv_bytes
from .features import SPLIT_RATIO, FeatureMatrix, GrowthSeries, chronological_split
from .models import ForecasterSpec, fit_spec, predict_with
from .models import forecast_arima  # noqa: F401  perfbench/tracing.py wraps this attribute

__all__ = [
    "MetricError",
    "EvalRow",
    "mse",
    "rmse",
    "theils_u",
    "score_row",
    "backtest",
    "emit_report_csv",
    "emit_report_json",
    "emit_plot_csv",
]

REPORT_DECIMALS = 9


class MetricError(ValueError):
    """Bad metric inputs (length mismatch, empty, undefined denominator)."""


def _check_pair(actual, predicted):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.ndim != 1:
        raise MetricError(f"length mismatch: {a.shape} vs {p.shape}")
    if a.size == 0:
        raise MetricError("empty series")
    return a, p


def mse(actual, predicted) -> float:
    a, p = _check_pair(actual, predicted)
    return float(np.mean((a - p) ** 2))


def rmse(actual, predicted) -> float:
    return math.sqrt(mse(actual, predicted))


def theils_u(actual, predicted, variant: str = "U2", history: float | None = None) -> float:
    """Theil's U forecast-accuracy statistic.

    U1 = rmse / (sqrt(mean(actual^2)) + sqrt(mean(predicted^2))).
    U2 compares against the naive no-change forecast: with ``history`` h,
    sqrt(sum (p_t - a_t)^2) / sqrt(sum (a_t - a_{t-1})^2) over all t with
    a_0 = h; without history the first step is dropped from both sums.
    """
    a, p = _check_pair(actual, predicted)
    if variant == "U1":
        denom = math.sqrt(float(np.mean(a**2))) + math.sqrt(float(np.mean(p**2)))
        if denom == 0:
            raise MetricError("undefined U for constant/zero series")
        return rmse(a, p) / denom
    if variant == "U2":
        if history is not None:
            prev = np.concatenate([[history], a[:-1]])
            num = float(np.sum((p - a) ** 2))
            den = float(np.sum((a - prev) ** 2))
        else:
            if a.size < 2:
                raise MetricError("U2 needs a history value or at least 2 points")
            num = float(np.sum((p[1:] - a[1:]) ** 2))
            den = float(np.sum((a[1:] - a[:-1]) ** 2))
        if den == 0:
            if num == 0:
                return 0.0
            raise MetricError("undefined U for constant/zero series")
        return math.sqrt(num) / math.sqrt(den)
    raise MetricError(f"unknown Theil variant: {variant!r}")


@dataclass
class EvalRow:
    label: str
    mse: float
    rmse: float
    theils_u: float
    quarters: list = field(default_factory=list)
    actual: list = field(default_factory=list)
    predicted: list = field(default_factory=list)


def score_row(label: str, matrix: FeatureMatrix, predicted, history: float | None = None) -> EvalRow:
    """The report row of ``predicted`` against the targets of ``matrix``.

    Theil's U is U2: ``history`` is the target before the first row, and
    without it the first step is dropped (see ``theils_u``). A metric that is
    not finite raises ``MetricError``.
    """
    actual = matrix.y
    with np.errstate(over="ignore"):  # an overflow gives inf, refused below
        metrics = {"mse": mse(actual, predicted), "rmse": rmse(actual, predicted),
                   "theils_u": theils_u(actual, predicted, history=history)}
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise MetricError(f"{name} is not finite: {value}")
    return EvalRow(
        label=label,
        **metrics,
        quarters=[str(q) for q in matrix.quarters],
        actual=[float(v) for v in actual],
        predicted=[float(v) for v in predicted],
    )


def backtest(
    spec: ForecasterSpec,
    matrix: FeatureMatrix,
    split_ratio=SPLIT_RATIO.default,
    growth: GrowthSeries | None = None,
) -> EvalRow:
    """Fit on the chronological training prefix, score the held-out suffix.

    ``growth`` is the history an ARIMA spec trains on (see ``fit_spec``). A
    split, fit or prediction that fails raises its own error (``FeatureError``,
    ``FitError``), and a metric that is not finite raises ``MetricError``.
    """
    train, test = chronological_split(matrix, split_ratio)
    predicted = predict_with(fit_spec(spec, train, growth), test)
    return score_row(spec.label, test, predicted, history=float(train.y[-1]))


def _fmt(value: float) -> str:
    return f"{value:.{REPORT_DECIMALS}f}"


def emit_report_csv(rows: list[EvalRow]) -> bytes:
    return csv_bytes(["model", "mse", "rmse", "theils_u"],
                     ([row.label, _fmt(row.mse), _fmt(row.rmse), _fmt(row.theils_u)] for row in rows))


def emit_report_json(rows: list[EvalRow]) -> bytes:
    obj = [
        {
            "model": row.label,
            "mse": round(row.mse, REPORT_DECIMALS),
            "rmse": round(row.rmse, REPORT_DECIMALS),
            "theils_u": round(row.theils_u, REPORT_DECIMALS),
            "quarters": row.quarters,
            "actual": [round(v, REPORT_DECIMALS) for v in row.actual],
            "predicted": [round(v, REPORT_DECIMALS) for v in row.predicted],
        }
        for row in rows
    ]
    return json.dumps(obj, indent=2).encode("utf-8")


def emit_plot_csv(rows: list[EvalRow]) -> bytes:
    """Actual-vs-predicted series: ``quarter,actual,<model labels...>``."""
    quarters = rows[0].quarters if rows else []
    if any(row.quarters != quarters for row in rows):
        raise MetricError("plot data requires all rows to share test quarters")
    return csv_bytes(["quarter", "actual", *(row.label for row in rows)],
                     ([q, _fmt(rows[0].actual[i]), *(_fmt(r.predicted[i]) for r in rows)]
                      for i, q in enumerate(quarters)))
