"""OLS linear regression with optional backward stepwise feature elimination."""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, nan

import numpy as np

from ..features import FeatureMatrix
from ..schema import check_fields, key

__all__ = ["LinearModel", "LrSpec", "FitError", "fit_lr", "predict_lr"]


class FitError(ValueError):
    """Model fitting failed."""


@dataclass
class LrSpec:
    selection: str = key("all", "string", choices=("all", "backward_stepwise"))
    threshold: float = key(0.3, low=0, high=1)  # the largest p-value stepwise selection keeps


@dataclass
class LinearModel:
    intercept: float
    coefficients: dict  # feature-id -> coefficient
    selected_features: list

    def predict(self, matrix: FeatureMatrix) -> np.ndarray:
        X = matrix.select(self.selected_features)
        if not self.selected_features:
            return np.full(matrix.n_rows, self.intercept)
        return self.intercept + X @ np.asarray([self.coefficients[n] for n in self.selected_features])


def _continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by modified Lentz (Numerical Recipes 6.4).

    It converges in O(sqrt(max(a, b))) steps where x < (a + 1)/(a + b + 2).
    """
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 4e-16:  # the last step moved h by under two ulps
            break
    return h


def _t_two_sided(dof: int, tstats: np.ndarray) -> np.ndarray:
    """Two-sided Student-t tail P(|T| >= |t|) on ``dof`` degrees of freedom, per t.

    It is I_x(dof/2, 1/2) at x = dof/(dof + t^2) (Abramowitz & Stegun 26.7.1),
    from the continued fraction in x or, by I_x(a, b) = 1 - I_{1-x}(b, a), in
    1 - x = t^2/(dof + t^2), whichever converges faster; 1 - x is formed from
    t^2, not from x, so a small |t| keeps its digits. t = 0 gives 1, |t| = inf
    (or a t^2 that overflows) gives 0, and nan gives nan.
    """
    a = dof / 2.0
    log_beta = lgamma(a) + lgamma(0.5) - lgamma(a + 0.5)
    out = []
    for t in np.abs(tstats).tolist():
        t2 = t * t
        x, y = dof / (dof + t2), t2 / (dof + t2)
        if x == 0.0 or y == 0.0 or t != t:
            out.append(0.0 if x == 0.0 else 1.0 if y == 0.0 else nan)
            continue
        front = exp(a * log(x) + 0.5 * log(y) - log_beta)
        if x < (a + 1.0) / (a + 2.5):
            p = front * _continued_fraction(a, 0.5, x) / a
        else:
            p = 1.0 - front * _continued_fraction(0.5, a, y) / 0.5
        out.append(min(1.0, max(0.0, p)))
    return np.asarray(out)


def _ols(X: np.ndarray, y: np.ndarray, columns: list):
    """The least-squares fit with an intercept: ``(beta, two-sided p-values)``."""
    n, k = X.shape
    design = np.column_stack([np.ones(n), X])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    tol = max(n, k + 1) * np.finfo(float).eps * (diag.max() if diag.size else 1.0)
    if np.any(diag < tol):
        bad = [("intercept" if j == 0 else columns[j - 1]) for j in np.where(diag < tol)[0]]
        raise FitError(f"rank-deficient design, collinear columns: {bad}")
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - design @ beta
    dof = n - (k + 1)
    if dof > 0:
        sigma2 = float(residuals @ residuals) / dof
        # var(beta) = sigma^2 (X'X)^-1, via the R factor
        rinv = np.linalg.inv(r)
        var_beta = sigma2 * np.sum(rinv * rinv, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tstats = beta / np.sqrt(var_beta)
        pvalues = _t_two_sided(dof, tstats)
    else:
        pvalues = np.zeros(k + 1)
    return beta, pvalues


def fit_lr(train: FeatureMatrix, selection: str = LrSpec.selection,
           threshold: float = LrSpec.threshold) -> LinearModel:
    """Least-squares fit of the growth target on the feature columns.

    ``selection="backward_stepwise"`` repeatedly drops the feature with the
    largest p-value above ``threshold`` and refits, until all survivors pass.
    """
    check_fields(LrSpec(selection, threshold), FitError)
    columns = list(train.columns)
    if train.n_rows < len(columns) + 1:
        raise FitError(
            f"too few rows ({train.n_rows}) for {len(columns)} features; need at least {len(columns) + 1}"
        )

    active = list(columns)
    while True:
        idx = [columns.index(c) for c in active]
        X = train.X[:, idx] if idx else np.empty((train.n_rows, 0))
        beta, pvalues = _ols(X, train.y, active)
        if selection == "all" or not active:
            break
        feature_p = pvalues[1:]  # skip intercept
        worst = int(np.argmax(feature_p)) if len(feature_p) else -1
        if worst < 0 or feature_p[worst] <= threshold:
            break
        active.pop(worst)

    return LinearModel(
        intercept=float(beta[0]),
        coefficients={name: float(b) for name, b in zip(active, beta[1:])},
        selected_features=list(active),
    )


def predict_lr(model: LinearModel, features: dict) -> float:
    """Evaluate intercept + sum(coef * feature) in selected-feature order."""
    total = model.intercept
    for name in model.selected_features:
        if name not in features:
            raise FitError(f"missing feature: {name!r}")
        total += model.coefficients[name] * features[name]
    return total
