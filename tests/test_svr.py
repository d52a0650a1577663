import numpy as np
import pytest
from scipy.optimize import minimize

from aspectcast.models import FitError, SvrSpec, fit_nusvr
from aspectcast.models.serialize import model_from_json, model_to_json
from aspectcast.models.svr import dual_objective, rbf_kernel, solve_nusvr_dual

from test_linear import matrix


def oracle_dual(K, y, C, nu):
    """Independent box-constrained QP solve of the same dual (SLSQP)."""
    n = len(y)
    cu = C / n

    def objective(z):
        a, s = z[:n], z[n:]
        return dual_objective(K, y, a, s)

    def grad(z):
        a, s = z[:n], z[n:]
        g = K @ (a - s) - y
        return np.concatenate([g, -g])

    cons = [
        {"type": "eq", "fun": lambda z: np.sum(z[:n]) - np.sum(z[n:])},
        {"type": "eq", "fun": lambda z: np.sum(z) - C * nu},
    ]
    z0 = np.full(2 * n, C * nu / (2 * n))
    res = minimize(
        objective, z0, jac=grad, bounds=[(0, cu)] * 2 * n, constraints=cons,
        method="SLSQP", options={"maxiter": 500, "ftol": 1e-12},
    )
    assert res.success, res.message
    return res.fun


FIVE_X = np.array([[0.0], [0.5], [1.0], [1.5], [2.0]])
FIVE_Y = np.array([0.0, 0.4, 0.1, -0.3, 0.2])


class TestDualSolver:
    def test_matches_qp_oracle(self):
        gamma, nu, C = 1.0, 0.5, 1.0
        K = rbf_kernel(FIVE_X, FIVE_X, gamma)
        alpha, alpha_star, viol = solve_nusvr_dual(K, FIVE_Y, C, nu, tol=1e-4)
        ours = dual_objective(K, FIVE_Y, alpha, alpha_star)
        reference = oracle_dual(K, FIVE_Y, C, nu)
        assert abs(ours - reference) < 1e-3
        assert viol < 1e-3

    def test_equality_constraints_hold(self):
        K = rbf_kernel(FIVE_X, FIVE_X, 1.0)
        alpha, alpha_star, _ = solve_nusvr_dual(K, FIVE_Y, 1.0, 0.5)
        beta = alpha - alpha_star
        assert abs(beta.sum()) < 1e-9
        assert np.sum(alpha + alpha_star) == pytest.approx(0.5, abs=1e-9)

    def test_no_convergence_raises(self):
        K = rbf_kernel(FIVE_X, FIVE_X, 1.0)
        with pytest.raises(FitError, match="nu-SVR solver did not converge; final KKT violation"):
            solve_nusvr_dual(K, FIVE_Y, 1.0, 0.5, max_iter=1)

    def test_box_bounds(self):
        C, n = 1.0, 5
        K = rbf_kernel(FIVE_X, FIVE_X, 1.0)
        alpha, alpha_star, _ = solve_nusvr_dual(K, FIVE_Y, C, 0.5)
        for v in (alpha, alpha_star):
            assert np.all(v >= -1e-12)
            assert np.all(v <= C / n + 1e-12)


class TestFitNusvr:
    def test_identical_points(self):
        m = matrix(np.zeros((2, 1)), [0.7, 0.7])
        model = fit_nusvr(m, SvrSpec(gamma=1.0, nu=0.5, C=1.0))
        pred = model.predict(m)
        assert np.allclose(pred, 0.7, atol=model.epsilon + 1e-6)

    def test_identical_points_different_targets(self):
        # a zero-curvature pair: the step is bounded by the box, not by eta = 0
        m = matrix(np.zeros((2, 1)), [0.0, 1.0])
        model = fit_nusvr(m, SvrSpec(gamma=1.0, nu=0.5, C=1.0))
        assert model.predict(m).tolist() == [0.5, 0.5]
        assert model.epsilon == 0.5

    def test_vanishing_nu_is_the_widest_tube(self):
        # no variable can move, so the bias is the midpoint and the tube covers every target
        model = fit_nusvr(matrix(FIVE_X, FIVE_Y), SvrSpec(gamma=1.0, nu=1e-300, C=1.0))
        assert model.predict(matrix(FIVE_X, FIVE_Y)) == pytest.approx(np.full(5, 0.05), abs=1e-15)
        assert model.epsilon == pytest.approx(0.35, abs=1e-15)
        assert model.kkt_violation == 0.0

    @pytest.mark.parametrize("C, rows", [(1e-12, 5), (1e-300, 5), (1e-9, 5), (4e-10, 2)])
    def test_C_too_small_for_the_rows(self, C, rows):
        m = matrix(FIVE_X[:rows], FIVE_Y[:rows])
        with pytest.raises(FitError, match=f"^C = {C:g} is too small for {rows} rows: C / rows must exceed 2e-10$"):
            fit_nusvr(m, SvrSpec(C=C))

    def test_one_row(self):
        with pytest.raises(FitError, match="^need at least 2 rows to fit nu-SVR$"):
            fit_nusvr(matrix(FIVE_X[:1], FIVE_Y[:1]))

    def test_C_just_above_the_bound_fits(self):
        model = fit_nusvr(matrix(FIVE_X, FIVE_Y), SvrSpec(C=1.001e-9))
        assert np.all(np.isfinite(model.predict(matrix(FIVE_X, FIVE_Y))))

    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        m = matrix(rng.normal(size=(6, 2)), np.full(6, 0.42))
        model = fit_nusvr(m, SvrSpec(gamma=1.0, nu=0.5, C=1.0))
        assert np.allclose(model.predict(m), 0.42, atol=1e-6)

    def test_translation_covariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        k = 3.7
        a = fit_nusvr(matrix(X, y), SvrSpec(gamma=0.5, nu=0.5, C=1.0))
        b = fit_nusvr(matrix(X, y + k), SvrSpec(gamma=0.5, nu=0.5, C=1.0))
        assert np.allclose(b.predict(matrix(X, y)) - a.predict(matrix(X, y)), k, atol=1e-9)

    def test_parameter_validation(self):
        m = matrix(np.zeros((3, 1)), [0, 0, 0.0])
        with pytest.raises(FitError):
            fit_nusvr(m, SvrSpec(gamma=-1))
        with pytest.raises(FitError):
            fit_nusvr(m, SvrSpec(nu=0.0))
        with pytest.raises(FitError):
            fit_nusvr(m, SvrSpec(C=-2.0))

    def test_interpolates_smooth_function(self):
        x = np.linspace(0, 2, 12)[:, None]
        y = np.sin(x).ravel() * 0.3
        m = matrix(x, y)
        model = fit_nusvr(m, SvrSpec(gamma=5.0, nu=0.8, C=10.0))
        assert np.max(np.abs(model.predict(m) - y)) < 0.05

    def test_serialization_roundtrip(self):
        m = matrix(FIVE_X, FIVE_Y)
        model = fit_nusvr(m, SvrSpec(gamma=1.0, nu=0.5, C=1.0))
        clone = model_from_json(model_to_json(model))
        assert np.array_equal(clone.predict(m), model.predict(m))
