"""JSON round-trip for fitted models; loading reproduces identical predictions.

A model file holds ``kind`` and every field of its dataclass but the ones
marked ``metadata={"diagnostic": True}``, each read back by its annotation.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields

import numpy as np

from ..schema import json_object
from .arima import ArimaModel
from .linear import FitError, LinearModel
from .mlp import MlpModel
from .svr import SvrModel

__all__ = ["model_to_json", "model_from_json"]

_MODELS = {"lr": LinearModel, "mlp": MlpModel, "svr": SvrModel, "arima": ArimaModel}
# a field's annotation, a string under ``from __future__ import annotations`` -> its value
_READ = {"np.ndarray": lambda v: np.asarray(v, dtype=float), "tuple": tuple, "list": list,
         "dict": dict}


def _stored(cls) -> list:
    return [f for f in fields(cls) if not f.metadata.get("diagnostic")]


def model_to_json(model) -> bytes:
    kind = next((k for k, cls in _MODELS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise FitError(f"cannot serialize model of type {type(model).__name__}")
    obj = {"kind": kind}
    for f in _stored(type(model)):
        value = getattr(model, f.name)
        # json writes a tuple as a list already
        obj[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")


def model_from_json(data: bytes):
    """Rebuild a fitted model; a file that is not one, or holds a field its kind
    does not store, raises FitError."""
    obj = json_object(data, "model", FitError)
    kind = obj.get("kind")
    cls = _MODELS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FitError(f"unknown model kind: {kind!r}")
    stored = _stored(cls)
    unknown = sorted(set(obj).difference(["kind"], (f.name for f in stored)))
    if unknown:
        raise FitError(f"unknown fields {unknown} in {kind} model")
    values = {}
    try:
        for f in stored:
            if f.name in obj:
                values[f.name] = _READ.get(f.type, lambda v: v)(obj[f.name])
            elif f.default is MISSING:
                raise FitError(f"{kind} model is missing field {f.name!r}")
    except TypeError as e:
        raise FitError(f"malformed {kind} model: {e}") from None
    return cls(**values)
