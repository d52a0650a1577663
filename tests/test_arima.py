import numpy as np
import pytest

from aspectcast.models import FitError, fit_arima, forecast_arima
from aspectcast.models.arima import ArimaModel, _css_residuals, _difference
from aspectcast.models.serialize import model_from_json, model_to_json

ORDER_GRID = [(1, 0, 0), (1, 1, 0), (2, 1, 0), (0, 1, 1), (2, 0, 0), (3, 0, 0)]


def simulate_ar1(n, phi, sigma=0.1, seed=0):
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = phi * y[t - 1] + sigma * rng.normal()
    return y


class TestDifference:
    def test_no_differencing(self):
        w, tails = _difference(np.array([1.0, 2.0, 4.0]), 0)
        assert np.array_equal(w, [1.0, 2.0, 4.0])
        assert tails.size == 0

    def test_single(self):
        w, tails = _difference(np.array([1.0, 2.0, 4.0]), 1)
        assert np.array_equal(w, [1.0, 2.0])
        assert np.array_equal(tails, [4.0])

    def test_double_roundtrip(self):
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        w, tails = _difference(y, 2)
        assert len(w) == 4
        assert tails[0] == y[-1]
        assert tails[1] == (y[-1] - y[-2])


class TestFit:
    def test_ar1_recovery(self):
        y = simulate_ar1(500, phi=0.6)
        model = fit_arima(y, (1, 0, 0))
        assert 0.5 <= model.ar_coefs[0] <= 0.7

    def test_mean_model(self):
        y = np.array([0.1, 0.3, 0.2, 0.4, 0.25, 0.15])
        model = fit_arima(y, (0, 0, 0))
        assert model.constant == pytest.approx(y.mean(), abs=1e-10)
        assert np.allclose(forecast_arima(model, 3), y.mean(), atol=1e-10)

    def test_random_walk_forecasts_flat(self):
        # without a constant under differencing, (0,1,0) is a pure random walk
        y = np.array([1.0, 1.4, 1.1, 1.9, 2.3])
        model = fit_arima(y, (0, 1, 0))
        assert model.constant == 0.0
        assert np.allclose(forecast_arima(model, 4), y[-1], atol=1e-12)

    def test_order_grid_on_short_series(self):
        y = simulate_ar1(13, phi=0.4, seed=3) + 0.05
        for orders in ORDER_GRID:
            model = fit_arima(y, orders)
            f = forecast_arima(model, 4)
            assert f.shape == (4,)
            assert np.all(np.isfinite(f))

    def test_negative_orders(self):
        with pytest.raises(FitError, match="non-negative"):
            fit_arima(np.arange(10.0), (1, -1, 0))

    def test_too_short(self):
        with pytest.raises(FitError, match="too short"):
            fit_arima(np.array([1.0, 2.0]), (1, 0, 0))

    @pytest.mark.parametrize("series, orders, message", [
        ([], (1, 0, 0), "series too short for ARIMA(1, 0, 0): 0 differenced points, need 3"),
        ([1.0, 2.0], [1, 0, 0], "series too short for ARIMA(1, 0, 0): 2 differenced points, need 3"),
        ([1.0, 2.0], (0, 2, 1), "series too short to difference 2 times"),
    ])
    def test_too_short_message(self, series, orders, message):
        with pytest.raises(FitError) as e:
            fit_arima(np.array(series), orders)
        assert str(e.value) == message

    def test_residuals_match_coefficients(self):
        y = simulate_ar1(60, phi=0.5, seed=7)
        model = fit_arima(y, (1, 0, 0))
        eps = _css_residuals(model.diffed, model.constant, model.ar_coefs, model.ma_coefs)
        assert np.allclose(eps, model.residuals)

    def test_ma_fit_reduces_error(self):
        rng = np.random.default_rng(11)
        e = 0.1 * rng.normal(size=120)
        y = e[1:] + 0.6 * e[:-1]
        model = fit_arima(y, (0, 0, 1))
        sse = float(np.sum(model.residuals[0:] ** 2))
        naive = float(np.sum((y - y.mean()) ** 2))
        assert sse < naive


class TestForecast:
    def test_ar1_decay(self):
        model = ArimaModel(
            orders=(1, 0, 0),
            constant=0.0,
            ar_coefs=np.array([0.5]),
            ma_coefs=np.empty(0),
            diffed=np.array([0.2, 0.7, 1.0]),
            residuals=np.zeros(3),
            last_levels=np.empty(0),
        )
        assert np.allclose(forecast_arima(model, 3), [0.5, 0.25, 0.125])

    def test_differenced_inversion(self):
        # linear trend differenced once: forecasting the differences at a
        # constant value must invert back to a continued trend level
        model = ArimaModel(
            orders=(0, 1, 0),
            constant=0.0,
            ar_coefs=np.empty(0),
            ma_coefs=np.empty(0),
            diffed=np.array([0.5, 0.5]),
            residuals=np.zeros(2),
            last_levels=np.array([3.0]),
        )
        assert np.allclose(forecast_arima(model, 3), [3.0, 3.0, 3.0])

    def test_bad_horizon(self):
        model = fit_arima(np.arange(10.0) * 0.1, (0, 0, 0))
        with pytest.raises(FitError, match="horizon"):
            forecast_arima(model, 0)


class TestSerialization:
    def test_roundtrip(self):
        y = simulate_ar1(40, phi=0.3, seed=5)
        model = fit_arima(y, (2, 1, 1))
        clone = model_from_json(model_to_json(model))
        assert np.allclose(forecast_arima(clone, 5), forecast_arima(model, 5))
        assert clone.orders == model.orders
