import numpy as np
import pytest

from aspectcast.models import FitError, MlpSpec, fit_mlp
from aspectcast.models import mlp as mlp_mod
from aspectcast.models.mlp import mlp_residual_fn, _pack
from aspectcast.models.serialize import model_from_json, model_to_json
from aspectcast.optimize import OptimizerStalled, half_sse, lm_step, numeric_jacobian

from test_linear import matrix


def toy_matrix(n=20, k=3, seed=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    y = np.tanh(X @ np.array([0.8, -0.4, 0.2][:k])) * 0.1 + 0.05
    return matrix(X, y)


class TestJacobian:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        n, k, H = 8, 3, 4
        X = rng.normal(size=(n, k))
        t = rng.uniform(0.2, 0.8, size=n)
        fn = mlp_residual_fn(X, t, H)
        params = rng.uniform(-0.5, 0.5, size=H * k + 2 * H + 1)
        _, J = fn(params)
        J_num = numeric_jacobian(lambda p: fn(p)[0], params, step=1e-5)
        denom = np.maximum(np.abs(J_num), 1e-6)
        assert np.max(np.abs(J - J_num) / denom) < 1e-4


class TestTraining:
    def test_error_decreases(self):
        m = toy_matrix()
        model = fit_mlp(m, MlpSpec(hidden_size=1, max_epochs=30, seed=0))
        assert model.trace, "training should record at least one epoch"
        first_train = model.trace[0][1]
        last_train = model.trace[-1][1]
        assert last_train <= first_train

    def test_accepted_steps_non_increasing(self):
        m = toy_matrix()
        t = (m.y - m.y.min() + 0.1) / (m.y.max() - m.y.min() + 0.2)
        fn = mlp_residual_fn(m.X, t, 3)
        rng = np.random.default_rng(1)
        params = rng.uniform(-0.5, 0.5, size=3 * 3 + 2 * 3 + 1)
        lam = 1e-3
        errors = []
        for _ in range(50):
            params, lam, err = lm_step(params, fn, lam)
            errors.append(err)
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_zero_epochs_returns_initial(self):
        m = toy_matrix()
        model = fit_mlp(m, MlpSpec(hidden_size=2, max_epochs=0, seed=7))
        assert model.trace == []
        rng = np.random.default_rng(7)
        rng.permutation(m.n_rows)
        expected = rng.uniform(-0.5, 0.5, size=2 * m.X.shape[1] + 2 * 2 + 1)
        assert np.allclose(_pack(model.w1, model.b1, model.w2, model.b2), expected)

    def test_best_validation_selection(self):
        m = toy_matrix(n=30)
        spec = MlpSpec(hidden_size=4, max_epochs=40, validation_patience=40, seed=3)
        model = fit_mlp(m, spec)
        # recompute the validation error of the returned weights
        rng = np.random.default_rng(3)
        order = rng.permutation(m.n_rows)
        n_val = max(1, round(0.15 * m.n_rows))
        n_hold = max(1, round(0.15 * m.n_rows))
        idx_val = order[m.n_rows - n_val - n_hold : m.n_rows - n_hold]
        t = (m.y - model.target_offset) / model.target_scale
        fn_val = mlp_residual_fn(m.X[idx_val], t[idx_val], spec.hidden_size)
        r, _ = fn_val(_pack(model.w1, model.b1, model.w2, model.b2))
        returned_val = half_sse(r)
        for _, _, v in model.trace:
            assert returned_val <= v + 1e-12

    def test_stall_ends_training(self, monkeypatch):
        # an lm_step that finds no acceptable step ends training like the epoch limit does
        steps = []

        def stalling_step(*args):
            if len(steps) == 3:
                raise OptimizerStalled("no acceptable step")
            steps.append(None)
            return lm_step(*args)

        m = toy_matrix()
        spec = MlpSpec(hidden_size=2, max_epochs=20, validation_patience=20, seed=5)
        expected = fit_mlp(m, MlpSpec(hidden_size=2, max_epochs=3, validation_patience=20, seed=5))
        monkeypatch.setattr(mlp_mod, "lm_step", stalling_step)
        model = fit_mlp(m, spec)
        assert len(model.trace) == 3
        assert model_to_json(model) == model_to_json(expected)

    def test_too_few_rows(self):
        with pytest.raises(FitError):
            fit_mlp(toy_matrix(n=4))

    def test_deterministic(self):
        m = toy_matrix()
        a = fit_mlp(m, MlpSpec(hidden_size=3, max_epochs=20, seed=9))
        b = fit_mlp(m, MlpSpec(hidden_size=3, max_epochs=20, seed=9))
        assert np.array_equal(a.predict(m), b.predict(m))

    def test_serialization_roundtrip(self):
        m = toy_matrix()
        model = fit_mlp(m, MlpSpec(hidden_size=2, max_epochs=10, seed=4))
        clone = model_from_json(model_to_json(model))
        assert np.array_equal(clone.predict(m), model.predict(m))

    @pytest.mark.parametrize("seed", [-1, True, "3", 2.0])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(FitError, match=r"seed must be an integer >= 0, got "):
            fit_mlp(toy_matrix(), MlpSpec(hidden_size=2, max_epochs=1, seed=seed))


class TestSeededDraws:
    """fit_mlp draws its row order and initial weights itself, bit for bit as
    ``default_rng(seed).permutation(n)`` and then ``.uniform(-0.5, 0.5, size)``."""

    SEEDS = [*range(200), 2**32, 2**64 + 3, 2**100 + 12345]

    @pytest.mark.parametrize("n, size", [(1, 10), (5, 3), (21, 191), (33, 381), (300, 7)])
    def test_equal_numpy_generator(self, n, size):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            order = rng.permutation(n)
            weights = rng.uniform(-0.5, 0.5, size)
            got_order, got_weights = mlp_mod._seeded_draws(seed, n, size)
            assert got_order.tolist() == order.tolist(), seed
            assert got_weights.tobytes() == weights.tobytes(), seed

    def test_frozen_first_draws(self):
        # seed 0's draws as NumPy 2.4 made them: if NumPy's Generator stream
        # changes, the check above fails and this one still holds
        order, weights = mlp_mod._seeded_draws(0, 21, 5)
        assert order.tolist() == [10, 18, 16, 4, 2, 12, 6, 19, 3, 11, 8, 0, 17, 13, 7, 20, 5, 14, 9, 1, 15]
        assert [w.hex() for w in weights.tolist()] == [
            "-0x1.3cac53084d930p-4", "-0x1.e3002b0a63158p-2", "-0x1.80bbe27ffa84ep-2",
            "0x1.5d70554810f74p-3", "0x1.2d71b1d434770p-3"]
