"""Four forecasters behind one contract, plus serialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .. import schema
from ..features import FeatureMatrix, GrowthSeries
from .arima import ArimaModel, ArimaSpec, fit_arima, forecast_arima
from .linear import FitError, LinearModel, LrSpec, fit_lr, predict_lr
from .mlp import MlpModel, MlpSpec, fit_mlp, mlp_residual_fn
from .serialize import model_from_json, model_to_json
from .svr import SvrModel, SvrSpec, fit_nusvr, rbf_kernel

__all__ = [
    "ForecasterSpec",
    "FitError",
    "LinearModel",
    "LrSpec",
    "MlpModel",
    "MlpSpec",
    "SvrModel",
    "SvrSpec",
    "ArimaModel",
    "ArimaSpec",
    "fit_lr",
    "predict_lr",
    "fit_mlp",
    "fit_nusvr",
    "fit_arima",
    "forecast_arima",
    "fit_spec",
    "predict_with",
    "model_to_json",
    "model_from_json",
    "load_reference_model",
]

# Each kind's params are the keys its spec declares; a ForecasterSpec rejects
# any other, so a typo fails instead of silently fitting the default.
SPECS = {"lr": LrSpec, "mlp": MlpSpec, "svr": SvrSpec, "arima": ArimaSpec}


@dataclass(frozen=True)
class ForecasterSpec:
    """One model configuration: kind, label, kind-specific params, seed.

    ``params`` is checked against the keys its kind declares and its defaults
    are filled in; a bad kind or param raises ``FitError``.
    """

    kind: str
    label: str = ""
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SPECS:
            raise FitError(f"unknown model kind: {self.kind!r}")
        object.__setattr__(self, "label", self.label or self.kind)
        object.__setattr__(self, "params", schema.validate(schema.keys(SPECS[self.kind]), self.params, FitError))


def fit_spec(spec: ForecasterSpec, train: FeatureMatrix, growth: GrowthSeries | None = None):
    """Fit one spec on a training prefix; ``predict_with`` then forecasts a test block.

    ARIMA trains on the ``growth`` values through the last training quarter,
    or on ``train.y`` when ``growth`` is None; the other kinds ignore ``growth``.
    """
    if spec.kind == "lr":
        return fit_lr(train, **spec.params)
    if spec.kind == "mlp":
        return fit_mlp(train, MlpSpec(**spec.params, seed=spec.seed))
    if spec.kind == "svr":
        return fit_nusvr(train, SvrSpec(**spec.params))
    # arima, the one kind left
    if growth is None:
        history = train.y
    else:
        last = train.quarters[-1]
        history = [v for q, v in zip(growth.quarters, growth.values) if q <= last]
    return fit_arima(history, **spec.params)


def predict_with(model, test: FeatureMatrix) -> np.ndarray:
    """Predictions aligned with the rows of ``test`` for any fitted model."""
    return model.predict(test)


def load_reference_model(name: str) -> LinearModel:
    """Shipped fitted linear reference models: ``lr13`` or ``lr16``."""
    data = resources.files("aspectcast").joinpath(f"data/reference_models/{name}.json").read_bytes()
    model = model_from_json(data)
    if not isinstance(model, LinearModel):
        raise FitError(f"reference model {name!r} is not linear")
    return model
