"""Perception aggregation, revenue growth, and design-matrix assembly."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .aspects import ASPECT_SET_16
from .corpus import Quarter, RevenueSeries, quarter_rows
from .schema import Key

__all__ = [
    "PerceptionRecord",
    "GrowthSeries",
    "FeatureMatrix",
    "FeatureError",
    "revenue_growth",
    "perception",
    "assemble",
    "chronological_split",
]

LAG_COLUMN = "lagged_growth"
SPLIT_RATIO = Key("number", count=2, low=0, open_low=True, name="split_ratio", default=(2, 1))


class FeatureError(ValueError):
    """Bad inputs to feature assembly."""


@dataclass(frozen=True)
class PerceptionRecord:
    """Per-aspect per-quarter mean compound sentiment."""

    aspect_id: str
    quarter: Quarter
    perception: float


@dataclass(frozen=True)
class GrowthSeries:
    """Quarter-over-quarter fractional revenue growth."""

    quarters: tuple[Quarter, ...]
    values: tuple[float, ...]

    def __len__(self):
        return len(self.quarters)


def revenue_growth(series: RevenueSeries) -> GrowthSeries:
    """Fractional growth (rev_q - rev_{q-1}) / rev_{q-1}, one value per quarter after the first.

    A growth that is not finite raises ``FeatureError`` naming its quarter.
    """
    if len(series) < 2:
        raise FeatureError("revenue series needs at least 2 quarters")
    quarters = series.quarters[1:]
    values = tuple(
        (cur - prev) / prev for prev, cur in zip(series.values, series.values[1:])
    )
    for quarter, value in zip(quarters, values):
        if not math.isfinite(value):  # a revenue near 0 overflows the division
            raise FeatureError(f"growth of {quarter} is not finite: {value}")
    return GrowthSeries(quarters=quarters, values=values)


def perception(aspect_id: str, quarter: Quarter, compounds: list[float]) -> PerceptionRecord:
    """Mean compound sentiment of the reviews referring to one aspect in one
    quarter; a cell without reviews has no record (``assemble`` fills it).
    """
    if not compounds:
        raise FeatureError(f"no compounds for {aspect_id!r} in {quarter}")
    for c in compounds:
        if not -1.0 <= c <= 1.0:
            raise FeatureError(f"compound out of range [-1, 1]: {c}")
    return PerceptionRecord(aspect_id, quarter, math.fsum(compounds) / len(compounds))


@dataclass
class FeatureMatrix:
    """Quarters x features design matrix with a growth target per row."""

    quarters: list[Quarter]
    columns: list[str]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.shape != (len(self.quarters), len(self.columns)):
            raise FeatureError("matrix shape does not match quarters/columns")
        if self.y.shape != (len(self.quarters),):
            raise FeatureError("target length does not match quarters")
        values = np.column_stack([self.X, self.y])
        if not np.isfinite(values).all():  # LR and SVR would forecast non-finite values, the MLP not train
            row, col = np.argwhere(~np.isfinite(values))[0]
            name = [*self.columns, "target"][col]
            raise FeatureError(f"{name} of {self.quarters[row]} is not finite: {values[row, col]}")
        for prev, cur in zip(self.quarters, self.quarters[1:]):
            if cur <= prev:  # chronological_split takes row order as time
                raise FeatureError(f"quarters must strictly ascend: {cur} follows {prev}")

    @property
    def n_rows(self) -> int:
        return len(self.quarters)

    def select(self, columns) -> np.ndarray:
        """The ``X`` columns named ``columns``, in that order."""
        idx = []
        for name in columns:
            if name not in self.columns:
                raise FeatureError(f"missing feature: {name!r}")
            idx.append(self.columns.index(name))
        return self.X[:, idx]

    def to_csv(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["quarter", *self.columns, "target_growth"])
        for i, q in enumerate(self.quarters):
            writer.writerow([str(q), *(repr(float(v)) for v in self.X[i]), repr(float(self.y[i]))])
        return buf.getvalue().encode("utf-8")

    @classmethod
    def from_csv(cls, data: bytes) -> "FeatureMatrix":
        """The matrix of a ``quarter,<columns...>,target_growth`` CSV, read by ``quarter_rows``."""
        columns, rows = quarter_rows(data, error=FeatureError)
        if columns[-1:] != ["target_growth"]:
            raise FeatureError("line 1: header must be quarter,<columns...>,target_growth")
        rows = list(rows)
        values = np.array([v for _, _, v in rows], dtype=float).reshape(len(rows), len(columns))
        return cls(quarters=[q for _, q, _ in rows], columns=columns[:-1],
                   X=values[:, :-1].copy(), y=values[:, -1].copy())


def assemble(
    perceptions: list[PerceptionRecord],
    growth: GrowthSeries,
    aspect_ids: list[str],
    include_lag: bool,
) -> FeatureMatrix:
    """Build the design matrix: one row per target quarter, one column per aspect.

    Missing (aspect, quarter) perceptions fill as 0. With ``include_lag`` the
    previous quarter's growth is appended as a column and the first growth
    quarter is dropped (it has no lag).
    """
    for aid in aspect_ids:
        if aid not in ASPECT_SET_16:
            raise FeatureError(f"unknown aspect id: {aid!r}")
    duplicate = sorted({aid for aid in aspect_ids if aspect_ids.count(aid) > 1})
    if duplicate:
        raise FeatureError(f"duplicate aspect ids: {duplicate}")
    lookup = {(p.aspect_id, p.quarter): p.perception for p in perceptions}

    if include_lag:
        rows = list(range(1, len(growth)))
    else:
        rows = list(range(len(growth)))
    if not rows:
        raise FeatureError("not enough growth quarters to assemble features")

    quarters = [growth.quarters[i] for i in rows]
    columns = list(aspect_ids) + ([LAG_COLUMN] if include_lag else [])
    X = np.zeros((len(rows), len(columns)))
    for r, i in enumerate(rows):
        q = growth.quarters[i]
        for c, aid in enumerate(aspect_ids):
            X[r, c] = lookup.get((aid, q), 0.0)
        if include_lag:
            X[r, -1] = growth.values[i - 1]
    y = np.asarray([growth.values[i] for i in rows])
    return FeatureMatrix(quarters=quarters, columns=columns, X=X, y=y)


def chronological_split(matrix: FeatureMatrix, ratio: tuple[float, float] = SPLIT_RATIO.default):
    """Time-ordered split: earliest ceil(n*train/(train+test)) rows train, rest test."""
    if not SPLIT_RATIO.accepts(ratio):
        raise FeatureError(SPLIT_RATIO.problem(ratio))
    train_part, test_part = ratio
    n = matrix.n_rows
    if n < 2:
        raise FeatureError("need at least 2 rows to split")
    n_train = math.ceil(n * train_part / (train_part + test_part))
    n_train = min(n_train, n - 1)

    def take(idx):
        return FeatureMatrix(
            quarters=[matrix.quarters[i] for i in idx],
            columns=list(matrix.columns),
            X=matrix.X[idx],
            y=matrix.y[idx],
        )

    return take(list(range(n_train))), take(list(range(n_train, n)))
