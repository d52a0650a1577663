"""OLS linear regression with optional backward stepwise feature elimination."""

from __future__ import annotations

from dataclasses import dataclass

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

    def predict_row(self, features: dict) -> float:
        total = self.intercept
        for name in self.selected_features:
            if name not in features:
                raise FitError(f"missing feature: {name!r}")
            total += self.coefficients[name] * features[name]
        return total

    def predict(self, matrix: FeatureMatrix) -> np.ndarray:
        idx = []
        for name in self.selected_features:
            if name not in matrix.columns:
                raise FitError(f"missing feature: {name!r}")
            idx.append(matrix.columns.index(name))
        coefs = np.asarray([self.coefficients[n] for n in self.selected_features])
        if not idx:
            return np.full(matrix.n_rows, self.intercept)
        return self.intercept + matrix.X[:, idx] @ coefs


def _coefficients(X: np.ndarray, y: np.ndarray, columns: list):
    """The least-squares fit with an intercept: ``(design, r, beta)``."""
    n, k = X.shape
    design = np.column_stack([np.ones(n), X])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    tol = max(n, k + 1) * np.finfo(float).eps * (diag.max() if diag.size else 1.0)
    if np.any(diag < tol):
        bad = [("intercept" if j == 0 else columns[j - 1]) for j in np.where(diag < tol)[0]]
        raise FitError(f"rank-deficient design, collinear columns: {bad}")
    return design, r, np.linalg.solve(r, q.T @ y)


def _ols(X: np.ndarray, y: np.ndarray, columns: list):
    """``_coefficients``'s beta with its two-sided p-values, for stepwise selection."""
    n, k = X.shape
    design, r, beta = _coefficients(X, y, columns)
    residuals = y - design @ beta
    dof = n - (k + 1)
    if dof > 0:
        sigma2 = float(residuals @ residuals) / dof
        # var(beta) = sigma^2 (X'X)^-1, via the R factor
        rinv = np.linalg.inv(r)
        var_beta = sigma2 * np.sum(rinv * rinv, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tstats = beta / np.sqrt(var_beta)
        # imported on first use: scipy.special takes ~0.3 s and ~26 MiB to
        # import, which fits that read no p-value skip
        from scipy.special import stdtr

        pvalues = 2.0 * stdtr(dof, -np.abs(tstats))
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
        if selection == "all":
            # nothing reads p-values here, so SciPy is not imported
            beta = _coefficients(X, train.y, active)[2]
            break
        beta, pvalues = _ols(X, train.y, active)
        if not active:
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
    return model.predict_row(features)
