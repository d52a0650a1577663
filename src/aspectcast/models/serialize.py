"""JSON round-trip for fitted models; loading reproduces identical predictions."""

from __future__ import annotations

import json

import numpy as np

from .arima import ArimaModel
from .linear import FitError, LinearModel
from .mlp import MlpModel
from .svr import SvrModel

__all__ = ["model_to_json", "model_from_json"]


def model_to_json(model) -> bytes:
    if isinstance(model, LinearModel):
        obj = {
            "kind": "lr",
            "intercept": model.intercept,
            "coefficients": model.coefficients,
            "selected_features": model.selected_features,
        }
    elif isinstance(model, MlpModel):
        obj = {
            "kind": "mlp",
            "columns": model.columns,
            "hidden_size": model.hidden_size,
            "w1": model.w1.tolist(),
            "b1": model.b1.tolist(),
            "w2": model.w2.tolist(),
            "b2": model.b2,
            "target_offset": model.target_offset,
            "target_scale": model.target_scale,
            "seed": model.seed,
        }
    elif isinstance(model, SvrModel):
        obj = {
            "kind": "svr",
            "columns": model.columns,
            "gamma": model.gamma,
            "nu": model.nu,
            "C": model.C,
            "support_X": model.support_X.tolist(),
            "dual_coef": model.dual_coef.tolist(),
            "rho": model.rho,
            "epsilon": model.epsilon,
        }
    elif isinstance(model, ArimaModel):
        obj = {
            "kind": "arima",
            "orders": list(model.orders),
            "constant": model.constant,
            "ar_coefs": model.ar_coefs.tolist(),
            "ma_coefs": model.ma_coefs.tolist(),
            "diffed": model.diffed.tolist(),
            "residuals": model.residuals.tolist(),
            "last_levels": model.last_levels.tolist(),
            "invertible": model.invertible,
        }
    else:
        raise FitError(f"cannot serialize model of type {type(model).__name__}")
    return json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")


def model_from_json(data: bytes):
    """Rebuild a fitted model; a file that is not one raises FitError."""
    obj = json.loads(data.decode("utf-8"))
    if not isinstance(obj, dict):
        raise FitError("model JSON must be an object")
    kind = obj.get("kind")
    try:
        if kind == "lr":
            return LinearModel(
                intercept=obj["intercept"],
                coefficients=dict(obj["coefficients"]),
                selected_features=list(obj["selected_features"]),
            )
        if kind == "mlp":
            return MlpModel(
                columns=list(obj["columns"]),
                hidden_size=obj["hidden_size"],
                w1=np.asarray(obj["w1"], dtype=float),
                b1=np.asarray(obj["b1"], dtype=float),
                w2=np.asarray(obj["w2"], dtype=float),
                b2=obj["b2"],
                target_offset=obj["target_offset"],
                target_scale=obj["target_scale"],
                seed=obj.get("seed", 0),
            )
        if kind == "svr":
            return SvrModel(
                columns=list(obj["columns"]),
                gamma=obj["gamma"],
                nu=obj["nu"],
                C=obj["C"],
                support_X=np.asarray(obj["support_X"], dtype=float),
                dual_coef=np.asarray(obj["dual_coef"], dtype=float),
                rho=obj["rho"],
                epsilon=obj["epsilon"],
            )
        if kind == "arima":
            return ArimaModel(
                orders=tuple(obj["orders"]),
                constant=obj["constant"],
                ar_coefs=np.asarray(obj["ar_coefs"], dtype=float),
                ma_coefs=np.asarray(obj["ma_coefs"], dtype=float),
                diffed=np.asarray(obj["diffed"], dtype=float),
                residuals=np.asarray(obj["residuals"], dtype=float),
                last_levels=np.asarray(obj["last_levels"], dtype=float),
                invertible=obj.get("invertible", True),
            )
    except KeyError as e:
        raise FitError(f"{kind} model is missing field {e}") from None
    except TypeError as e:
        raise FitError(f"malformed {kind} model: {e}") from None
    raise FitError(f"unknown model kind: {kind!r}")
