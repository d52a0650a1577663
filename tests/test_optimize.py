import numpy as np
import pytest
from test_arima_equivalence import reference_lm_minimize, reference_lm_step
from test_linear import matrix

from aspectcast import optimize
from aspectcast.models import MlpSpec, fit_mlp
from aspectcast.models import mlp as mlp_mod
from aspectcast.optimize import OptimizerStalled, lm_minimize, lm_step, numeric_jacobian


def linear_residual_fn(A, b):
    def fn(x):
        return A @ x - b, A

    return fn


class TestLmStep:
    def test_linear_one_step(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 3))
        b = rng.normal(size=6)
        x0 = np.zeros(3)
        x1, lam, err = lm_step(x0, linear_residual_fn(A, b), lam=1e-12)
        x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(x1, x_star, atol=1e-8)

    def test_zero_residual_point(self):
        A = np.eye(2)
        b = np.array([1.0, 2.0])
        x, lam, err = lm_step(b.copy(), linear_residual_fn(A, b), lam=1e-3)
        assert err == 0.0
        assert np.allclose(x, b)

    def test_rosenbrock_non_increasing(self):
        def fn(p):
            x, y = p
            r = np.array([10.0 * (y - x * x), 1.0 - x])
            J = np.array([[-20.0 * x, 10.0], [-1.0, 0.0]])
            return r, J

        p = np.array([-1.2, 1.0])
        lam = 1e-3
        errors = []
        for _ in range(50):
            p, lam, err = lm_step(p, fn, lam)
            errors.append(err)
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < errors[0]

    def test_singular_damped_system_raises_the_damping(self):
        # 1 + 1e-20 == 1, so J'J + lam*I = [[1, 1], [1, 1]] is singular until lam nears 1e-15
        def fn(p):
            return np.array([p[0] + p[1] - 1.0]), np.array([[1.0, 1.0]])

        x, lam, err = lm_step(np.zeros(2), fn, lam=1e-20)
        assert np.allclose(x, [0.5, 0.5], atol=1e-12)
        assert lam == 1e-15 and err < 1e-30

    def test_stall_raises(self):
        def fn(p):
            # error cannot decrease along the suggested direction
            return np.array([np.nan]), np.array([[1.0]])

        with pytest.raises(OptimizerStalled):
            lm_step(np.zeros(1), fn, lam=1.0)


def rosenbrock(p):
    x, y = p
    r = np.array([10.0 * (y - x * x), 1.0 - x])
    J = np.array([[-20.0 * x, 10.0], [-1.0, 0.0]])
    return r, J


def exponential_fit():
    t = np.linspace(0, 1, 20)
    target = 2.0 * np.exp(-1.3 * t)

    def fn(p):
        e = np.exp(p[1] * t)
        return p[0] * e - target, np.column_stack([e, p[0] * t * e])

    return fn


class TestLazyJacobian:
    def recording_fn(self, fn):
        """Wrap an array-returning residual fn to return its Jacobian as a callable,
        recording every point evaluated and every point whose Jacobian is built."""
        evaluated, jacobians = [], []

        def wrapped(p):
            point = np.array(p, dtype=float)
            evaluated.append(point)
            r, J = fn(point)

            def jac():
                jacobians.append(point)
                return J

            return r, jac

        return wrapped, evaluated, jacobians

    def test_once_per_step_including_retries(self):
        # a Jacobian 100x too small makes the undamped step overshoot, so the
        # step retries with larger damping before one is accepted
        def fn(x):
            return x - 3.0, np.array([[0.01]])

        wrapped, evaluated, jacobians = self.recording_fn(fn)
        x, lam, err = lm_step(np.zeros(1), wrapped, lam=1e-12)
        assert err < 4.5
        assert len(evaluated) > 2  # the point stepped from, then several candidates
        assert len(jacobians) == 1
        assert jacobians[0] is evaluated[0]

    def test_never_for_candidates(self):
        wrapped, evaluated, jacobians = self.recording_fn(rosenbrock)
        p, lam = np.array([-1.2, 1.0]), 1e-3
        for _ in range(30):
            p_before = p
            p, lam, _ = lm_step(p, wrapped, lam)
            assert np.array_equal(jacobians[-1], p_before)
        assert len(jacobians) == 30
        assert len(evaluated) > 30

    def test_lm_minimize_builds_one_per_step(self, monkeypatch):
        steps = []

        def counting_step(*args, **kwargs):
            steps.append(args[0])
            return lm_step(*args, **kwargs)

        # lm_minimize looks lm_step up in its module
        monkeypatch.setattr(optimize, "lm_step", counting_step)
        wrapped, _, jacobians = self.recording_fn(exponential_fit())
        lm_minimize(np.array([1.0, 0.0]), wrapped, max_steps=100)
        # none for the initial error evaluation, one per step
        assert len(steps) > 1
        assert len(jacobians) == len(steps)

    def test_fit_mlp_builds_one_per_step(self, monkeypatch):
        steps, made = [], []

        def counting_step(*args, **kwargs):
            steps.append(np.array(args[0], dtype=float))
            return lm_step(*args, **kwargs)

        def recording_lazy_fn(*args):
            fn = lazy_residual_fn(*args)
            evaluated, jacobians = [], []

            def wrapped(p):
                point = np.array(p, dtype=float)
                evaluated.append(point)
                r, jac = fn(p)

                def counted():
                    jacobians.append(point)
                    return jac()

                return r, counted

            made.append((evaluated, jacobians))
            return wrapped

        lazy_residual_fn = mlp_mod._lazy_residual_fn
        # fit_mlp looks both up in its module
        monkeypatch.setattr(mlp_mod, "lm_step", counting_step)
        monkeypatch.setattr(mlp_mod, "_lazy_residual_fn", recording_lazy_fn)
        X = np.random.default_rng(1).normal(size=(21, 4))
        model = fit_mlp(matrix(X, np.tanh(X @ [0.8, -0.4, 0.2, 0.1]) * 0.1 + 0.05),
                        MlpSpec(hidden_size=5, max_epochs=40, seed=1))
        (train_points, train_jacobians), (val_points, val_jacobians) = made
        assert len(steps) >= len(model.trace) > 1
        # one per step, at the point the step starts from
        assert len(train_jacobians) == len(steps)
        for built, start in zip(train_jacobians, steps):
            assert np.array_equal(built, start)
        # none for candidates, including the candidates of damping retries
        assert len(train_points) > 2 * len(steps)
        # none for validation
        assert len(val_points) == len(model.trace) + 1 and not val_jacobians

    @pytest.mark.parametrize("fn, start", [(rosenbrock, [-1.2, 1.0]),
                                           (exponential_fit(), [1.0, 0.0])])
    def test_same_results_as_reference(self, fn, start):
        lazy, _, _ = self.recording_fn(fn)
        expected = reference_lm_minimize(np.array(start), fn, max_steps=100)
        for residual_fn in (fn, lazy):
            got = lm_minimize(np.array(start), residual_fn, max_steps=100)
            assert repr(got[0].tolist()) == repr(expected[0].tolist())
            assert repr(got[1]) == repr(expected[1])

        p_ref = p = np.array(start, dtype=float)
        lam_ref = lam = 1e-3
        for _ in range(20):
            p_ref, lam_ref, err_ref = reference_lm_step(p_ref, fn, lam_ref)
            p, lam, err = lm_step(p, fn, lam)
            assert (repr(p.tolist()), lam, repr(err)) == (repr(p_ref.tolist()), lam_ref, repr(err_ref))


class TestLmMinimize:
    def test_converges_on_exponential_fit(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0, 1, 20)
        true = np.array([2.0, -1.3])

        def model(p):
            return p[0] * np.exp(p[1] * t)

        target = model(true)

        def fn(p):
            r = model(p) - target
            J = np.column_stack([np.exp(p[1] * t), p[0] * t * np.exp(p[1] * t)])
            return r, J

        p, err = lm_minimize(np.array([1.0, 0.0]), fn, max_steps=100)
        assert np.allclose(p, true, atol=1e-6)
        assert err < 1e-12


class TestNumericJacobian:
    def test_matches_analytic(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

        def fn(x):
            return A @ x

        J = numeric_jacobian(fn, np.array([0.3, -0.7]))
        assert np.allclose(J, A, atol=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_two_evaluations_per_parameter(self, k):
        calls = []

        def fn(x):
            calls.append(x)
            return np.array([x.sum(), x @ x, 1.0])

        J = numeric_jacobian(fn, np.linspace(-1.0, 1.0, k))
        assert J.shape == (3, k)
        assert len(calls) == 2 * k
