"""Differential tests: the ARIMA CSS fit against a frozen copy of the fit it
replaced, which evaluated the residual recursion on NumPy scalars and built a
full numeric Jacobian, one recursion per perturbed point, at every trial point
of every optimizer step.

Both must agree bit for bit (compared by ``repr``, so inf, nan and the sign of
zero count), and fail with the same error type, because report bytes are
pinned downstream.
"""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aspectcast.corpus import parse_revenue
from aspectcast.features import revenue_growth
from aspectcast.models import FitError, fit_arima, forecast_arima
from aspectcast.models.arima import (ArimaModel, _css_residuals, _difference, _residual_fn,
                                     _split_params)
from aspectcast.optimize import OptimizerStalled, half_sse, numeric_jacobian

SWEEP_ORDERS = [(p, d, q) for p in range(4) for d in range(2) for q in range(3)]


# --- frozen references -------------------------------------------------------


def reference_css_residuals(w, constant, ar, ma):
    p, q = len(ar), len(ma)
    n = len(w)
    eps = np.zeros(n)
    for t in range(p, n):
        pred = constant
        for i in range(p):
            pred += ar[i] * w[t - 1 - i]
        for j in range(q):
            if t - 1 - j >= 0:
                pred += ma[j] * eps[t - 1 - j]
        eps[t] = w[t] - pred
    return eps


def reference_numeric_jacobian(fn, params, step=1e-6):
    params = np.asarray(params, dtype=float)
    r0 = np.asarray(fn(params), dtype=float)
    J = np.zeros((r0.size, params.size))
    for j in range(params.size):
        h = step * max(1.0, abs(params[j]))
        up = params.copy()
        dn = params.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (np.asarray(fn(up)) - np.asarray(fn(dn))) / (2.0 * h)
    return J


def reference_lm_step(params, residual_fn, lam, lam_max=1e12):
    params = np.asarray(params, dtype=float)
    r, J = residual_fn(params)
    r = np.asarray(r, dtype=float)
    J = np.atleast_2d(np.asarray(J, dtype=float))
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(J))):
        raise OptimizerStalled("non-finite residuals or Jacobian")
    err = half_sse(r)
    A = J.T @ J
    g = J.T @ r
    eye = np.eye(len(params))
    while lam <= lam_max:
        try:
            delta = np.linalg.solve(A + lam * eye, -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        candidate = params + delta
        new_r, _ = residual_fn(candidate)
        new_err = half_sse(new_r)
        if np.isfinite(new_err) and new_err <= err:
            return candidate, max(lam / 10.0, 1e-15), new_err
        lam *= 10.0
    raise OptimizerStalled(f"optimizer stalled at error {err:.3e}")


def reference_lm_minimize(params, residual_fn, lam0=1e-3, max_steps=200, tol=1e-12):
    params = np.asarray(params, dtype=float)
    lam = lam0
    r, _ = residual_fn(params)
    err = half_sse(r)
    for _ in range(max_steps):
        try:
            new_params, lam, new_err = reference_lm_step(params, residual_fn, lam)
        except OptimizerStalled:
            break
        improvement = err - new_err
        params, err = new_params, new_err
        if improvement <= tol * max(err, 1.0):
            break
    return params, err


def reference_fit_arima(y, orders):
    """``fit_arima`` as it was, on the frozen helpers above."""
    p, d, q = orders
    if min(p, d, q) < 0:
        raise FitError("ARIMA orders must be non-negative")
    y = np.asarray(y, dtype=float)
    if len(y) <= d:
        raise FitError(f"series too short to difference {d} times")
    w, tails = _difference(y, d)
    if len(w) < p + q + 2:
        raise FitError("series too short")
    use_const = d == 0
    n_params = (1 if use_const else 0) + p + q
    if n_params == 0:
        return ArimaModel((p, d, q), 0.0, np.empty(0), np.empty(0), w, w.copy(), tails)

    def residual_only(params):
        c, ar, ma = _split_params(params, p, q, use_const)
        return reference_css_residuals(w, c, ar, ma)[p:]

    def residual_fn(params):
        r = residual_only(params)
        return r, reference_numeric_jacobian(residual_only, params)

    start = np.zeros(n_params)
    if use_const:
        start[0] = w.mean()
    params, _ = reference_lm_minimize(start, residual_fn, max_steps=300)
    constant, ar, ma = _split_params(params, p, q, use_const)
    eps = reference_css_residuals(w, constant, ar, ma)

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


# --- comparison --------------------------------------------------------------


def _outcome(fit, y, orders):
    """Everything a report can see of one fit, as reprs; or the error type raised."""
    try:
        with np.errstate(all="ignore"):
            model = fit(y, orders)
            forecast = forecast_arima(model, 10)
    except Exception as e:
        return type(e)
    return (
        repr(model.constant),
        repr(model.ar_coefs.tolist()),
        repr(model.ma_coefs.tolist()),
        repr(model.residuals.tolist()),
        repr(forecast.tolist()),
        model.invertible,
    )


def assert_same_fit(y, orders):
    expected = _outcome(reference_fit_arima, y, orders)
    assert _outcome(fit_arima, y, orders) == expected, orders


def _bundled_growth():
    data = resources.files("aspectcast").joinpath("data/synthetic/revenue.csv").read_bytes()
    return np.asarray(revenue_growth(parse_revenue(data)).values, dtype=float)


finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
SCALES = st.sampled_from([1e-3, 1.0, 1e3, 1e100, 1e154, 1e200, 1e300, 1.7e308])
series = st.builds(
    lambda values, scale: np.asarray(values) * scale,
    st.lists(finite, min_size=3, max_size=24),
    SCALES,
)


class TestFitEquivalence:
    @pytest.mark.parametrize("orders", SWEEP_ORDERS, ids=str)
    def test_bundled_growth_series(self, orders):
        y = _bundled_growth()
        assert_same_fit(y, orders)
        # the 2:1 training prefix a backtest fits on
        assert_same_fit(y[: math.ceil(len(y) * 2 / 3)], orders)

    @given(series, st.sampled_from(SWEEP_ORDERS))
    @settings(max_examples=100, deadline=None)
    def test_generated_series(self, y, orders):
        assert_same_fit(y, orders)

    def test_huge_series_goes_non_finite(self):
        # products overflow to inf and inf - inf gives nan: the optimizer stalls
        # at its first step and the residuals carry inf and nan
        y = np.array([1.7e308, -1.7e308, 1.6e308, -1.5e308, 1.7e308, -1.1e308])
        with np.errstate(all="ignore"):
            model = fit_arima(y, (2, 0, 1))
        assert not np.all(np.isfinite(model.residuals))
        assert_same_fit(y, (2, 0, 1))

    def test_same_error_type(self):
        assert _outcome(fit_arima, np.array([1.0, 2.0]), (1, 0, 0)) is FitError
        assert_same_fit(np.array([1.0, 2.0]), (1, 0, 0))


class TestHelperEquivalence:
    @given(
        st.lists(finite, min_size=0, max_size=20),
        finite,
        st.lists(finite, max_size=3),
        st.lists(finite, max_size=2),
        SCALES,
    )
    @settings(max_examples=300, deadline=None)
    def test_css_residuals(self, w, constant, ar, ma, scale):
        w = np.asarray(w) * scale
        ar, ma = np.asarray(ar) * 2.0, np.asarray(ma) * 2.0
        with np.errstate(all="ignore"):
            expected = reference_css_residuals(w, np.float64(constant * scale), ar, ma)
        got = _css_residuals(w, np.float64(constant * scale), ar, ma)
        assert got.dtype == expected.dtype
        assert repr(got.tolist()) == repr(expected.tolist())

    @given(st.lists(finite, min_size=1, max_size=4), SCALES)
    @settings(max_examples=100, deadline=None)
    def test_numeric_jacobian(self, params, scale):
        w = np.linspace(-1.0, 1.0, 12) * scale
        params = np.asarray(params)

        def fn(x):
            return _css_residuals(w, x[0], x[1:], np.empty(0))

        with np.errstate(all="ignore"):
            expected = reference_numeric_jacobian(fn, params)
            got = numeric_jacobian(fn, params)
        assert got.shape == expected.shape
        assert repr(got.tolist()) == repr(expected.tolist())


def reference_residual_only(w, p, q, use_const):
    def fn(params):
        c, ar, ma = _split_params(params, p, q, use_const)
        return reference_css_residuals(w, c, ar, ma)[p:]

    return fn


def assert_same_residual_map(w, orders, points):
    """The fit's residual map against the frozen recursion and Jacobian, one point after another."""
    p, d, q = orders
    residual_fn = _residual_fn(w, p, q, d == 0)
    reference = reference_residual_only(w, p, q, d == 0)
    for x in points:
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            r, jac = residual_fn(x)
            J = jac()
            r_ref = reference(x)
            J_ref = reference_numeric_jacobian(reference, x)
        assert repr(r.tolist()) == repr(r_ref.tolist()), (orders, x)
        assert J.shape == J_ref.shape
        assert repr(J.tolist()) == repr(J_ref.tolist()), (orders, x)


def _n_params(orders):
    p, d, q = orders
    return (1 if d == 0 else 0) + p + q


# every sweep order but (0, 1, 0), which has no parameters to fit
FITTED_ORDERS = [orders for orders in SWEEP_ORDERS if _n_params(orders)]


class TestResidualMapEquivalence:
    @pytest.mark.parametrize("orders", FITTED_ORDERS, ids=str)
    def test_bundled_growth_series(self, orders):
        w, _ = _difference(_bundled_growth(), orders[1])
        rng = np.random.default_rng(sum(orders))
        k = _n_params(orders)
        # each point twice: the second call is answered from the kept residuals
        points = [np.zeros(k), np.zeros(k), rng.normal(size=k) * 0.5, -np.zeros(k),
                  rng.normal(size=k) * 1e3, rng.normal(size=k) * 1e3]
        points[-1] = points[-2].copy()
        assert_same_residual_map(w, orders, points)

    @pytest.mark.parametrize("orders", [(0, 0, 2), (1, 0, 2), (0, 1, 2), (0, 0, 1)], ids=str)
    def test_ma_lags_before_the_series_start(self, orders):
        # p < q: the first q - p residuals leave out the MA lags before t = 0;
        # an infinite MA coefficient times a pre-sample zero would give nan
        w, _ = _difference(_bundled_growth()[:8], orders[1])
        k = _n_params(orders)
        for ma in ([math.inf, 0.5], [0.5, math.inf], [-0.0, -0.0], [1.7e308, -1.7e308]):
            x = np.full(k, 0.25)
            x[k - orders[2]:] = ma[: orders[2]]
            assert_same_residual_map(w, orders, [x])

    def test_kept_residuals_tell_the_sign_of_zero(self):
        # eps = w - c: with w = -0.0, c = 0.0 gives -0.0 and c = -0.0 gives 0.0,
        # so the kept residuals of 0.0 must not answer for -0.0
        w = np.array([-0.0, -0.0, -0.0, -0.0])
        reference = reference_residual_only(w, 0, 0, True)
        assert repr(reference(np.array([0.0])).tolist()) != repr(reference(np.array([-0.0])).tolist())
        assert_same_residual_map(w, (0, 0, 0), [[0.0], [-0.0], [0.0], [-0.0]])

    @given(
        st.sampled_from(FITTED_ORDERS),
        st.lists(finite, min_size=8, max_size=24),
        st.lists(finite, min_size=7, max_size=7),
        SCALES,
        SCALES,
    )
    @settings(max_examples=200, deadline=None)
    def test_generated(self, orders, values, params, series_scale, param_scale):
        with np.errstate(all="ignore"):
            w, _ = _difference(np.asarray(values) * series_scale, orders[1])
        x = np.asarray(params[: _n_params(orders)]) * param_scale
        assert_same_residual_map(w, orders, [x, x, -x])
