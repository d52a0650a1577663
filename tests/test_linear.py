import numpy as np
import pytest

from aspectcast.corpus import Quarter
from aspectcast.features import FeatureMatrix
from aspectcast.models import FitError, fit_lr, load_reference_model, predict_lr
from aspectcast.models.linear import _t_two_sided
from aspectcast.models.serialize import model_from_json, model_to_json


def matrix(X, y, columns=None):
    X = np.asarray(X, dtype=float)
    columns = columns or [f"f{i}" for i in range(X.shape[1])]
    quarters = [Quarter(2015, 4)]
    for _ in range(len(X) - 1):
        quarters.append(quarters[-1].next())
    return FeatureMatrix(quarters=quarters, columns=columns, X=X, y=np.asarray(y, float))


class TestFitLr:
    def test_noiseless_line(self):
        x = np.linspace(0, 1, 5)
        m = matrix(x[:, None], 0.5 + 2.0 * x, columns=["x"])
        model = fit_lr(m)
        assert model.intercept == pytest.approx(0.5, abs=1e-8)
        assert model.coefficients["x"] == pytest.approx(2.0, abs=1e-8)

    def test_constant_target(self):
        rng = np.random.default_rng(3)
        m = matrix(rng.normal(size=(8, 2)), np.full(8, 3.25))
        model = fit_lr(m)
        assert model.intercept == pytest.approx(3.25, abs=1e-8)
        for c in model.coefficients.values():
            assert c == pytest.approx(0.0, abs=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        m = matrix(X, y)
        model = fit_lr(m)
        residuals = y - model.predict(m)
        for j in range(4):
            col = X[:, j]
            assert abs(residuals @ col) < 1e-8 * max(np.linalg.norm(col) * np.linalg.norm(residuals), 1.0)

    def test_rank_deficient_names_columns(self):
        X = np.ones((6, 2))
        X[:, 1] = X[:, 0]  # duplicate column, also collinear with intercept
        with pytest.raises(FitError, match="collinear"):
            fit_lr(matrix(X, np.arange(6.0)))

    def test_too_few_rows(self):
        with pytest.raises(FitError, match="too few rows"):
            fit_lr(matrix(np.eye(3), np.arange(3.0)))

    def test_backward_stepwise_drops_noise(self):
        rng = np.random.default_rng(16)
        n = 60
        x_signal = rng.normal(size=n)
        x_noise = rng.normal(size=n)
        y = 1.0 + 3.0 * x_signal + 0.01 * rng.normal(size=n)
        m = matrix(np.column_stack([x_signal, x_noise]), y, columns=["signal", "noise"])
        model = fit_lr(m, selection="backward_stepwise", threshold=0.3)
        assert "signal" in model.selected_features
        assert "noise" not in model.selected_features

    def test_unknown_selection(self):
        m = matrix(np.random.default_rng(0).normal(size=(6, 2)), np.arange(6.0))
        with pytest.raises(FitError, match="selection"):
            fit_lr(m, selection="forward")


# |t| from 1e-12 to 1e4, both signs
T_GRID = np.concatenate([np.geomspace(1e-12, 1e4, 1601), -np.geomspace(1e-12, 1e4, 161)])


class TestStudentTail:
    """``_t_two_sided`` against SciPy, which only the tests import."""

    @pytest.mark.parametrize("dof", range(1, 81))
    def test_relative_error_against_stdtr(self, dof):
        from scipy.special import stdtr

        expected = 2.0 * stdtr(dof, -np.abs(T_GRID))
        got = _t_two_sided(dof, T_GRID)
        # near p = 1 stdtr loses digits (at dof 1 it returns 1.0 below |t| = 1e-8)
        tail = expected < 0.999
        np.testing.assert_allclose(got[tail], expected[tail], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[~tail], expected[~tail], rtol=0, atol=1e-8)

    def test_closed_forms(self):
        t = np.abs(T_GRID)
        np.testing.assert_allclose(_t_two_sided(1, T_GRID), 1 - (2 / np.pi) * np.arctan(t), rtol=0, atol=1e-14)
        np.testing.assert_allclose(_t_two_sided(2, T_GRID), 1 - t / np.sqrt(2 + t * t), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dof", [1, 2, 7, 80])
    def test_edge_values(self, dof):
        got = _t_two_sided(dof, np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert got[:2].tolist() == [1.0, 1.0]
        assert got[2:4].tolist() == [0.0, 0.0]
        assert np.isnan(got[4])
        # |t| below 1e-17 leaves 1 - p under half an ulp of 1
        subnormal = np.array([5e-324, -5e-324, 2.2e-308, 1e-160, 1e-20])
        assert _t_two_sided(dof, subnormal).tolist() == [1.0] * 5
        p = _t_two_sided(dof, np.geomspace(1e-300, 1e300, 601))
        assert np.all((0.0 <= p) & (p <= 1.0)) and np.all(np.diff(p) <= 0)


class TestPredictLr:
    def test_eq10_zero_vector(self):
        model = load_reference_model("lr16")
        features = {name: 0.0 for name in model.selected_features}
        assert predict_lr(model, features) == pytest.approx(0.515)

    def test_eq10_cost_one(self):
        model = load_reference_model("lr16")
        features = {name: 0.0 for name in model.selected_features}
        features["cost_savings"] = 1.0
        assert predict_lr(model, features) == pytest.approx(0.569)

    def test_eq9_zero_vector(self):
        model = load_reference_model("lr13")
        features = {name: 0.0 for name in model.selected_features}
        assert predict_lr(model, features) == pytest.approx(0.519)

    def test_empty_model(self):
        from aspectcast.models import LinearModel

        model = LinearModel(intercept=0.0, coefficients={}, selected_features=[])
        assert predict_lr(model, {"anything": 5.0}) == 0.0
        assert model.predict(matrix(np.ones((3, 2)), np.zeros(3))).tolist() == [0.0, 0.0, 0.0]

    def test_missing_feature(self):
        model = load_reference_model("lr16")
        with pytest.raises(FitError, match="missing feature"):
            predict_lr(model, {})


class TestSerialization:
    def test_roundtrip_predictions(self):
        x = np.linspace(0, 1, 6)
        m = matrix(x[:, None], 1.0 - 0.5 * x, columns=["x"])
        model = fit_lr(m)
        clone = model_from_json(model_to_json(model))
        assert np.array_equal(clone.predict(m), model.predict(m))

    def test_not_a_model(self):
        with pytest.raises(FitError, match="^cannot serialize model of type object$"):
            model_to_json(object())
