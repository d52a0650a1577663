"""Single-hidden-layer perceptron trained by damped least squares.

The network is sigmoid(hidden) -> sigmoid(output); targets are affinely
mapped into the open unit interval before training and predictions are
mapped back, so the sigmoid output can represent negative growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features import FeatureMatrix
from ..optimize import lm_step, half_sse, OptimizerStalled
from ..schema import check_fields, key
from .linear import FitError

__all__ = ["MlpModel", "MlpSpec", "fit_mlp", "mlp_residual_fn"]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


@dataclass
class MlpSpec:
    hidden_size: int = key(10, "int", low=1)
    max_epochs: int = key(100, "int", low=0)
    # lm_step grows a rejected step's damping tenfold, which never lifts 0 to lam_max
    lambda0: float = key(1e-3, low=0, open_low=True)
    validation_patience: int = key(6, "int", low=1)
    seed: int = 0  # not a param: a model entry's or the run's seed


@dataclass
class MlpModel:
    columns: list
    hidden_size: int
    w1: np.ndarray          # (H, k) input->hidden weights
    b1: np.ndarray          # (H,)
    w2: np.ndarray          # (H,) hidden->output weights
    b2: float
    target_offset: float
    target_scale: float
    trace: list = field(default_factory=list, metadata={"diagnostic": True})  # (epoch, train_err, val_err)
    seed: int = 0

    def _forward(self, X: np.ndarray) -> np.ndarray:
        z = _sigmoid(X @ self.w1.T + self.b1)
        return _sigmoid(z @ self.w2 + self.b2)

    def predict(self, matrix: FeatureMatrix) -> np.ndarray:
        out = self._forward(matrix.select(self.columns))
        return out * self.target_scale + self.target_offset


def _pack(w1, b1, w2, b2):
    return np.concatenate([w1.ravel(), b1, w2, [b2]])


def _unpack(params, H, k):
    w1 = params[: H * k].reshape(H, k)
    b1 = params[H * k : H * k + H]
    w2 = params[H * k + H : H * k + 2 * H]
    b2 = params[-1]
    return w1, b1, w2, b2


def _lazy_residual_fn(X: np.ndarray, t: np.ndarray, H: int):
    """Residual map returning (r, jac): jac builds the analytic Jacobian when called."""
    k = X.shape[1]

    def fn(params):
        w1, b1, w2, b2 = _unpack(params, H, k)
        a = X @ w1.T + b1            # (n, H)
        z = _sigmoid(a)
        u = z @ w2 + b2              # (n,)
        o = _sigmoid(u)
        r = o - t

        def jac():
            do = o * (1.0 - o)           # (n,)
            dz = z * (1.0 - z)           # (n, H)
            # d o / d w1[h, j] = do * w2[h] * dz[:, h] * X[:, j]
            g_hidden = do[:, None] * w2[None, :] * dz     # (n, H)
            J_w1 = g_hidden[:, :, None] * X[:, None, :]   # (n, H, k)
            return np.concatenate(
                [
                    J_w1.reshape(len(t), H * k),
                    g_hidden,
                    do[:, None] * z,
                    do[:, None],
                ],
                axis=1,
            )

        return r, jac

    return fn


def mlp_residual_fn(X: np.ndarray, t: np.ndarray, H: int):
    """Residual map (scaled predictions minus scaled targets) with analytic Jacobian."""
    lazy = _lazy_residual_fn(X, t, H)

    def fn(params):
        r, jac = lazy(params)
        return r, jac()

    return fn


def fit_mlp(train: FeatureMatrix, spec: MlpSpec | None = None) -> MlpModel:
    """Train with LM on a seeded 70/15/15 row split, keeping best-validation weights."""
    spec = spec or MlpSpec()
    check_fields(spec, FitError)
    if train.n_rows < 5:
        raise FitError(f"need at least 5 rows to train the perceptron, got {train.n_rows}")

    rng = np.random.default_rng(spec.seed)
    n = train.n_rows
    order = rng.permutation(n)
    n_val = max(1, int(round(0.15 * n)))
    n_hold = max(1, int(round(0.15 * n)))
    n_train = n - n_val - n_hold  # at least 3, as n >= 5
    idx_train = order[:n_train]
    idx_val = order[n_train : n_train + n_val]

    # map targets into (0, 1) so the sigmoid output can represent them
    ymin, ymax = float(train.y.min()), float(train.y.max())
    spread = ymax - ymin
    scale = spread / 0.6 if spread > 0 else 1.0
    offset = ymin - 0.2 * scale
    t_all = (train.y - offset) / scale

    X = train.X
    k = X.shape[1]
    H = spec.hidden_size
    params = rng.uniform(-0.5, 0.5, size=H * k + 2 * H + 1)

    # lm_step builds the Jacobian only at the point each step starts from
    fn_train = _lazy_residual_fn(X[idx_train], t_all[idx_train], H)
    fn_val = _lazy_residual_fn(X[idx_val], t_all[idx_val], H)

    def val_error(p):
        r, _ = fn_val(p)
        return half_sse(r)

    trace = []
    best_params = params.copy()
    best_val = val_error(params)
    lam = spec.lambda0
    stale = 0
    for epoch in range(1, spec.max_epochs + 1):
        try:
            params, lam, train_err = lm_step(params, fn_train, lam)
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
    return MlpModel(
        columns=list(train.columns),
        hidden_size=H,
        w1=w1,
        b1=b1,
        w2=w2,
        b2=float(b2),
        target_offset=offset,
        target_scale=scale,
        trace=trace,
        seed=spec.seed,
    )
