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
from ..optimize import lm_minimize, numeric_jacobian_rows
from ..optimize import numeric_jacobian  # noqa: F401  perfbench/tracing.py wraps this attribute
from ..schema import check_fields, key
from .linear import FitError

__all__ = ["ArimaModel", "ArimaSpec", "fit_arima", "forecast_arima"]


@dataclass
class ArimaSpec:
    orders: tuple = key((1, 0, 0), "int", count=3, low=0)  # (p, d, q)


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


def _lagged(w: np.ndarray, p: int) -> np.ndarray:
    """(p + 1, n - p) array: row i holds w[t - i] for t = p..n-1."""
    n = len(w)
    return np.stack([w[p - i : n - i] for i in range(p + 1)])


def _css_rows(lagged: np.ndarray, C: np.ndarray, AR: np.ndarray, MA: np.ndarray) -> np.ndarray:
    """CSS residuals eps[p:] of m parameter rows, C (m,), AR (m, p), MA (m, q): an (m, n - p) array.

    ``lagged`` is ``_lagged(w, p)``. eps[t] = w[t] - pred[t] for t >= p, and 0
    before p. pred[t] adds, in this order, the constant, ar[i] * w[t-1-i] for
    i = 0..p-1 and ma[j] * eps[t-1-j] for j = 0..q-1, leaving out the MA lags
    before the series start.
    """
    p, q = AR.shape[1], MA.shape[1]
    n = p + lagged.shape[1]
    # NumPy float64 and Python float do the same IEEE-754 binary64 operations:
    # the constant and AR terms in NumPy over rows x time, the MA recursion on
    # Python floats row by row. Overflow gives inf and nan silently, as floats do.
    with np.errstate(over="ignore", invalid="ignore"):
        pred = np.repeat(C[:, None], n - p, axis=1)
        for term in AR.T[:, :, None] * lagged[1:, None, :]:
            pred += term
        if q == 0:
            return lagged[0] - pred
    # From t = max(p, q) on, every MA lag t-1-j is >= 0; for q = 1 and 2 the
    # last q residuals are then kept in locals. Any other q runs the guarded
    # loop throughout.
    start = max(p, q) if q <= 2 else n
    w = [0.0] * p + lagged[0].tolist()  # w[t] for t >= p
    out = []
    for base, ma in zip(pred.tolist(), MA.tolist()):
        eps = [0.0] * p
        for t in range(p, min(start, n)):
            pred_t = base[t - p]
            for j in range(q):
                if t - 1 - j >= 0:
                    pred_t += ma[j] * eps[t - 1 - j]
            eps.append(w[t] - pred_t)
        rest = zip(w[start:], base[start - p :])
        if q == 1 and start < n:
            (m1,), e1 = ma, eps[-1]
            for wt, b in rest:
                e1 = wt - (b + m1 * e1)
                eps.append(e1)
        elif q == 2 and start < n:
            (m1, m2), e1, e2 = ma, eps[-1], eps[-2]
            for wt, b in rest:
                e1, e2 = wt - (b + m1 * e1 + m2 * e2), e1
                eps.append(e1)
        out += eps[p:]
    return np.array(out).reshape(len(MA), n - p)


def _css_residuals(w: np.ndarray, constant: float, ar: np.ndarray, ma: np.ndarray) -> np.ndarray:
    """CSS residuals of one parameter set, with the p leading zeros."""
    w = np.asarray(w, dtype=float)
    ar, ma = np.asarray(ar, dtype=float), np.asarray(ma, dtype=float)
    p = len(ar)
    eps = np.zeros(len(w))
    if len(w) > p:
        C = np.array([float(constant)])
        eps[p:] = _css_rows(_lagged(w, p), C, ar[None, :], ma[None, :])[0]
    return eps


def _split_params(params, p, q, use_const):
    k = 0
    constant = params[0] if use_const else 0.0
    if use_const:
        k = 1
    ar = params[k : k + p]
    ma = params[k + p : k + p + q]
    return constant, ar, ma


def _residual_fn(w: np.ndarray, p: int, q: int, use_const: bool):
    """The optimizer's residual map for a CSS fit: params -> (residuals, lazy Jacobian).

    The Jacobian is the central difference of ``numeric_jacobian``, with its
    2k perturbed points evaluated as rows of one ``_css_rows`` call. The last
    residuals are kept, keyed on the exact bytes of their point, because
    ``lm_step`` starts from the candidate it has just evaluated.
    """
    k = 1 if use_const else 0
    lagged = _lagged(w, p)

    def css(points):
        C = points[:, 0] if use_const else np.zeros(len(points))
        return _css_rows(lagged, C, points[:, k : k + p], points[:, k + p :])

    last = {}

    def residual_fn(params):
        key = params.tobytes()
        if key not in last:
            last.clear()
            last[key] = css(params[None, :])[0]
        return last[key], lambda: numeric_jacobian_rows(css, params)

    return residual_fn


def fit_arima(series, orders: tuple) -> ArimaModel:
    """CSS fit of a 1-d series of values."""
    check_fields(ArimaSpec(orders), FitError)
    p, d, q = orders
    y = np.asarray(series, dtype=float)
    if d and len(y) <= d:  # with d = 0, an empty series fails the next check, which counts its points
        raise FitError(f"series too short to difference {d} times")
    w, tails = _difference(y, d)
    if len(w) < p + q + 2:
        raise FitError(
            f"series too short for ARIMA({p}, {d}, {q}): {len(w)} differenced points, need {p + q + 2}"
        )

    use_const = d == 0
    n_params = (1 if use_const else 0) + p + q

    params = np.zeros(n_params)
    if use_const:
        params[0] = w.mean()
    if n_params:  # a (0, d, 0) model has nothing to fit: its residuals are w
        params, _ = lm_minimize(params, _residual_fn(w, p, q, use_const), max_steps=300)
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
