"""Differential tests: the perceptron fit against a frozen copy of the fit it
replaced, which built the analytic Jacobian at every residual evaluation
(trial candidates and validation points included), evaluated the unused
starting residual, and damped the normal equations with ``A + lam * np.eye``.

Both must agree bit for bit (compared by ``repr``, so inf, nan and the sign of
zero count), because report bytes are pinned downstream.
"""

import numpy as np
import pytest

from aspectcast.features import chronological_split
from aspectcast.models import FitError, MlpSpec, fit_mlp
from aspectcast.models.mlp import MlpModel, _unpack, mlp_residual_fn
from aspectcast.optimize import OptimizerStalled, half_sse
from aspectcast.pipeline import PipelineConfig, build_features, build_matrix, load_inputs

# --- frozen references -------------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def reference_residual_fn(X, t, H):
    k = X.shape[1]

    def fn(params):
        w1, b1, w2, b2 = _unpack(params, H, k)
        a = X @ w1.T + b1
        z = _sigmoid(a)
        u = z @ w2 + b2
        o = _sigmoid(u)
        r = o - t
        do = o * (1.0 - o)
        dz = z * (1.0 - z)
        g_hidden = do[:, None] * w2[None, :] * dz
        J_w1 = g_hidden[:, :, None] * X[:, None, :]
        J = np.concatenate(
            [J_w1.reshape(len(t), H * k), g_hidden, do[:, None] * z, do[:, None]], axis=1
        )
        return r, J

    return fn


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


def reference_fit_mlp(train, spec):
    """``fit_mlp`` as it was, on the array-returning residual map."""
    if train.n_rows < 5:
        raise FitError("too few rows")
    if spec.hidden_size < 1:
        raise FitError("hidden_size must be >= 1")
    rng = np.random.default_rng(spec.seed)
    n = train.n_rows
    order = rng.permutation(n)
    n_val = max(1, int(round(0.15 * n)))
    n_hold = max(1, int(round(0.15 * n)))
    n_train = n - n_val - n_hold
    if n_train < 1:
        n_train, n_val, n_hold = n - 2, 1, 1
    idx_train = order[:n_train]
    idx_val = order[n_train : n_train + n_val]

    ymin, ymax = float(train.y.min()), float(train.y.max())
    spread = ymax - ymin
    scale = spread / 0.6 if spread > 0 else 1.0
    offset = ymin - 0.2 * scale
    t_all = (train.y - offset) / scale

    X = train.X
    k = X.shape[1]
    H = spec.hidden_size
    params = rng.uniform(-0.5, 0.5, size=H * k + 2 * H + 1)

    fn_train = reference_residual_fn(X[idx_train], t_all[idx_train], H)
    fn_val = reference_residual_fn(X[idx_val], t_all[idx_val], H)

    def val_error(p):
        r, _ = fn_val(p)
        return half_sse(r)

    r0, _ = fn_train(params)
    trace = []
    best_params = params.copy()
    best_val = val_error(params)
    lam = spec.lambda0
    stale = 0
    for epoch in range(1, spec.max_epochs + 1):
        try:
            params, lam, train_err = reference_lm_step(params, fn_train, lam)
        except OptimizerStalled:
            break
        if not np.isfinite(train_err):
            raise FitError(f"non-finite training error at epoch {epoch}")
        v = val_error(params)
        trace.append((epoch, train_err, v))
        if v < best_val:
            best_val = v
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= spec.validation_patience:
                break

    w1, b1, w2, b2 = _unpack(best_params, H, k)
    return MlpModel(list(train.columns), H, w1, b1, w2, float(b2), offset, scale, trace, spec.seed)


# --- comparison --------------------------------------------------------------


def _outcome(model):
    return (
        repr(model.w1.tolist()),
        repr(model.b1.tolist()),
        repr(model.w2.tolist()),
        repr(model.b2),
        repr(model.target_offset),
        repr(model.target_scale),
        repr(model.trace),
    )


def _training_prefix(aspects):
    cfg = PipelineConfig.defaults(aspects=aspects)
    return chronological_split(build_matrix(cfg, *build_features(*load_inputs(cfg))))[0]


@pytest.fixture(scope="module", params=[13, 16], ids=["aspects13", "aspects16"])
def prefix(request):
    return _training_prefix(request.param)


class TestFitEquivalence:
    @pytest.mark.parametrize("hidden_size", [2, 5, 10, 20])
    def test_bundled_training_prefix(self, prefix, hidden_size):
        for seed in range(5):
            spec = MlpSpec(hidden_size=hidden_size, seed=seed)
            expected = _outcome(reference_fit_mlp(prefix, spec))
            assert _outcome(fit_mlp(prefix, spec)) == expected, (hidden_size, seed)

    def test_residual_fn_unchanged(self, prefix):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.2, 0.8, size=prefix.n_rows)
        for H in (2, 10):
            params = rng.uniform(-0.5, 0.5, size=H * prefix.X.shape[1] + 2 * H + 1)
            r, J = mlp_residual_fn(prefix.X, t, H)(params)
            r_ref, J_ref = reference_residual_fn(prefix.X, t, H)(params)
            assert (repr(r.tolist()), repr(J.tolist())) == (repr(r_ref.tolist()), repr(J_ref.tolist()))

    def test_fits_take_steps(self, prefix):
        # the comparison above must cover fits that run several epochs
        model = fit_mlp(prefix, MlpSpec(hidden_size=10, seed=0))
        assert len(model.trace) > 5
