"""Four forecasters behind one contract, plus serialization."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..features import FeatureMatrix, GrowthSeries
from .arima import ArimaModel, fit_arima, forecast_arima
from .linear import FitError, LinearModel, fit_lr, positive_number, predict_lr
from .mlp import MlpModel, MlpSpec, fit_mlp, mlp_residual_fn
from .serialize import model_from_json, model_to_json
from .svr import SvrModel, SvrSpec, fit_nusvr, rbf_kernel

__all__ = [
    "ForecasterSpec",
    "FitError",
    "LinearModel",
    "MlpModel",
    "MlpSpec",
    "SvrModel",
    "SvrSpec",
    "ArimaModel",
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

# The params each kind takes; fit_spec rejects any other, so a typo fails
# instead of silently fitting the default.
PARAMS = {
    "lr": ("selection", "threshold"),
    "mlp": ("hidden_size", "max_epochs", "lambda0", "validation_patience"),
    "svr": ("gamma", "nu", "C"),
    "arima": ("orders",),
}
KINDS = tuple(PARAMS)


@dataclass(frozen=True)
class ForecasterSpec:
    """One model configuration: kind, label, kind-specific params, seed."""

    kind: str
    label: str = ""
    params: tuple = ()  # sorted (name, value) pairs, hashable
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FitError(f"unknown model kind: {self.kind!r}")
        if not self.label:
            object.__setattr__(self, "label", self.kind)

    @classmethod
    def make(cls, kind, label="", seed=0, **params):
        return cls(kind=kind, label=label, seed=seed, params=tuple(sorted(params.items())))

    def param_dict(self) -> dict:
        return dict(self.params)


def fit_spec(spec: ForecasterSpec, train: FeatureMatrix, growth: GrowthSeries | None = None):
    """Fit one spec on a training prefix; ``predict_with`` then forecasts a test block.

    ARIMA trains on the ``growth`` values through the last training quarter,
    or on ``train.y`` when ``growth`` is None; the other kinds ignore ``growth``.
    """
    p = spec.param_dict()
    unknown = sorted(set(p).difference(PARAMS[spec.kind]))
    if unknown:
        raise FitError(f"unknown {spec.kind} params {unknown}; it takes {list(PARAMS[spec.kind])}")
    if spec.kind == "lr":
        return fit_lr(train, selection=p.get("selection", "all"), threshold=p.get("threshold", 0.3))
    if spec.kind == "mlp":
        mspec = MlpSpec(
            hidden_size=p.get("hidden_size", 10),
            max_epochs=p.get("max_epochs", 100),
            lambda0=p.get("lambda0", 1e-3),
            validation_patience=p.get("validation_patience", 6),
            seed=spec.seed,
        )
        return fit_mlp(train, mspec)
    if spec.kind == "svr":
        sspec = SvrSpec(gamma=p.get("gamma", 5.0), nu=p.get("nu", 0.5), C=p.get("C", 1.0))
        return fit_nusvr(train, sspec)
    # arima, the one kind left
    if growth is None:
        history = train.y
    else:
        last = train.quarters[-1]
        history = [v for q, v in zip(growth.quarters, growth.values) if q <= last]
    return fit_arima(history, tuple(p.get("orders", (1, 0, 0))))


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
