"""ARIMA(p, d, q) fitted by conditional sum of squares.

Pre-sample errors are fixed at zero and the first p differenced observations
are conditioned on; coefficients come from the shared damped least-squares
optimizer. The constant is included only for d = 0 (for d >= 1 the model is
a plain differenced AR/MA, so a (0,1,0) model is a random walk).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import FeatureMatrix
from ..optimize import lm_minimize, numeric_jacobian
from .linear import FitError

__all__ = ["ArimaModel", "fit_arima", "forecast_arima"]


@dataclass
class ArimaModel:
    orders: tuple  # (p, d, q)
    constant: float
    ar_coefs: np.ndarray
    ma_coefs: np.ndarray
    diffed: np.ndarray       # series after d differencings
    residuals: np.ndarray    # one per diffed observation (pre-sample zeros)
    last_levels: np.ndarray  # tail of the undifferenced series, length d (may be 0)
    invertible: bool = True

    def predict(self, matrix: FeatureMatrix) -> np.ndarray:
        """Forecasts for the ``matrix.n_rows`` quarters after the fitted series."""
        return forecast_arima(self, matrix.n_rows)


def _difference(y: np.ndarray, d: int):
    w = np.asarray(y, dtype=float)
    tails = []  # tails[j] = last value of the j-times differenced series
    for _ in range(d):
        tails.append(w[-1])
        w = np.diff(w)
    return w, np.asarray(tails, dtype=float)


def _css_residuals(w: np.ndarray, constant: float, ar: np.ndarray, ma: np.ndarray) -> np.ndarray:
    # Python floats do the same IEEE-754 binary64 arithmetic as NumPy float64
    # scalars, in the same order, at a fraction of the per-element cost.
    w, ar, ma = (np.asarray(v, dtype=float).tolist() for v in (w, ar, ma))
    constant = float(constant)
    p, q = len(ar), len(ma)
    n = len(w)
    eps = [0.0] * n
    for t in range(p, n):
        pred = constant
        for i in range(p):
            pred += ar[i] * w[t - 1 - i]
        for j in range(q):
            if t - 1 - j >= 0:
                pred += ma[j] * eps[t - 1 - j]
        eps[t] = w[t] - pred
    return np.array(eps)


def _split_params(params, p, q, use_const):
    k = 0
    constant = params[0] if use_const else 0.0
    if use_const:
        k = 1
    ar = params[k : k + p]
    ma = params[k + p : k + p + q]
    return constant, ar, ma


def fit_arima(series, orders: tuple) -> ArimaModel:
    """CSS fit of a 1-d series of values."""
    p, d, q = orders
    if min(p, d, q) < 0:
        raise FitError("ARIMA orders must be non-negative")
    y = np.asarray(series, dtype=float)
    if len(y) <= d:
        raise FitError(f"series too short to difference {d} times")
    w, tails = _difference(y, d)
    if len(w) < p + q + 2:
        raise FitError(
            f"series too short for ARIMA{orders}: {len(w)} differenced points, need {p + q + 2}"
        )

    use_const = d == 0
    n_params = (1 if use_const else 0) + p + q

    if n_params == 0:
        return ArimaModel(
            orders=(p, d, q),
            constant=0.0,
            ar_coefs=np.empty(0),
            ma_coefs=np.empty(0),
            diffed=w,
            residuals=w.copy(),
            last_levels=tails,
        )

    def residual_only(params):
        c, ar, ma = _split_params(params, p, q, use_const)
        return _css_residuals(w, c, ar, ma)[p:]

    def residual_fn(params):
        return residual_only(params), lambda: numeric_jacobian(residual_only, params)

    start = np.zeros(n_params)
    if use_const:
        start[0] = w.mean()
    params, _ = lm_minimize(start, residual_fn, max_steps=300)
    constant, ar, ma = _split_params(params, p, q, use_const)
    eps = _css_residuals(w, constant, ar, ma)

    invertible = True
    if q > 0:
        roots = np.roots(np.concatenate([[1.0], ma]))
        invertible = bool(np.all(np.abs(roots) < 1.0 + 1e-9)) if roots.size else True

    return ArimaModel(
        orders=(p, d, q),
        constant=float(constant),
        ar_coefs=np.asarray(ar, dtype=float),
        ma_coefs=np.asarray(ma, dtype=float),
        diffed=w,
        residuals=eps,
        last_levels=tails,
        invertible=invertible,
    )


def forecast_arima(model: ArimaModel, horizon: int) -> np.ndarray:
    """Iterated one-step forecasts with future shocks at zero, differencing inverted."""
    if horizon < 1:
        raise FitError("horizon must be >= 1")
    p, d, q = model.orders
    w = list(model.diffed)
    eps = list(model.residuals)
    out = []
    for _ in range(horizon):
        pred = model.constant
        for i in range(p):
            pred += model.ar_coefs[i] * w[-1 - i]
        for j in range(q):
            pred += model.ma_coefs[j] * eps[-1 - j]
        w.append(pred)
        eps.append(0.0)
        out.append(pred)
    forecasts = np.asarray(out)
    # invert differencing: deepest tail level first (last of the (d-1)-diffed series)
    for level in model.last_levels[::-1]:
        forecasts = level + np.cumsum(forecasts)
    return forecasts
