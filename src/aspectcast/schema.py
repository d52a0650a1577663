"""Declared keys: the type, default and range of every config key, model param
and sentiment heuristic, as dataclass fields made by ``key``, and the one
check that reads them, ``validate``, which names the key a value fails; and
``json_object``, which reads the JSON object that holds such keys."""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache

__all__ = ["Key", "key", "keys", "validate", "check_fields", "json_object"]

# type -> the Python types of its values, and what an error message calls one
_TYPES = {"bool": (bool, "true or false"), "int": (int, "an integer"),
          "number": ((int, float), "a finite number"), "string": (str, "a string"),
          "path": ((str, os.PathLike), "a path string"),
          "aspects": ((int, str, list, tuple), "13, 16 or a list of aspect ids"),
          "models": ((list, tuple), "a list of model entries")}
# (count, range) of a list key -> how an error message says them
_PLURALS = {(2, "> 0"): "two positive", (3, ">= 0"): "three non-negative"}


@dataclass(frozen=True)
class Key:
    """What one key accepts, and its default; a key whose default is None accepts null."""

    type: str               # one of _TYPES
    low: float = -math.inf  # int and number: the range [low, high]; a number is finite
    high: float = math.inf
    open_low: bool = False  # low itself is out of range
    count: int = 0          # a list of exactly this many values of ``type``
    choices: tuple = ()     # the only values a string takes
    name: str = ""          # the key; the field's name unless given
    default: object = field(default_factory=lambda: MISSING)  # MISSING when it has none

    def accepts(self, value) -> bool:
        if value is None:
            return self.default is None
        if self.count:
            return (isinstance(value, (list, tuple)) and len(value) == self.count
                    and all(map(self._accepts_one, value)))
        return self._accepts_one(value)

    def _accepts_one(self, value) -> bool:
        if not isinstance(value, _TYPES[self.type][0]) or (isinstance(value, bool) and self.type != "bool"):
            return False
        if self.type == "aspects":
            return (all(isinstance(a, str) for a in value) if isinstance(value, (list, tuple))
                    else value in (13, 16, "13", "16"))
        if self.type not in ("int", "number"):
            return not self.choices or value in self.choices
        # NaN fails every comparison; a number must also convert to a float
        above = self.low < value if self.open_low else self.low <= value
        largest = sys.float_info.max if self.type == "number" else math.inf
        return above and value <= self.high and -largest <= value <= largest

    def range(self) -> str:  # "" for none
        if self.high < math.inf:
            return f"in {'(' if self.open_low else '['}{self.low:g}, {self.high:g}]"
        return f"{'>' if self.open_low else '>='} {self.low:g}" if self.low > -math.inf else ""

    def problem(self, value, of: str = "") -> str:
        bounds = self.range()
        if self.count:
            what = f"{_PLURALS[self.count, bounds]} {'integers' if self.type == 'int' else 'numbers'}"
        elif self.choices:
            what = f"one of {list(self.choices)}"
        else:
            what = bounds if self.type == "number" and bounds else f"{_TYPES[self.type][1]} {bounds}".rstrip()
        return f"{self.name}{of} must be {what}, got {value!r}"

    def as_field(self):
        return field(default=self.default, metadata={"key": self})


def key(default, type: str = "number", **rule):
    """A dataclass field declaring one key: its default, type and range."""
    return Key(type, default=default, **rule).as_field()


@cache
def keys(cls) -> tuple:
    """The keys a dataclass declares, in field order."""
    return tuple(replace(f.metadata["key"], name=f.metadata["key"].name or f.name)
                 for f in fields(cls) if "key" in f.metadata)


def validate(declared: tuple, values: dict, error, of: str = "") -> dict:
    """``values`` and the defaults of the ``declared`` keys it lacks; a key not declared or a
    value its key does not accept raises ``error``, naming the key, the message ending in ``of``."""
    names = [k.name for k in declared]
    unknown = sorted(set(values).difference(names))
    if unknown:
        raise error(f"unknown keys {unknown}{of}; it takes {names}")
    for k in declared:
        if k.name in values and not k.accepts(values[k.name]):
            raise error(k.problem(values[k.name], of))
    return {k.name: values.get(k.name, k.default) for k in declared
            if k.name in values or k.default is not MISSING}


def check_fields(instance, error) -> None:
    """``validate`` on the declared fields of a built dataclass."""
    validate(keys(type(instance)), {k.name: getattr(instance, k.name) for k in keys(type(instance))}, error)


def json_object(data: bytes, what: str, error=ValueError) -> dict:
    """The JSON object UTF-8 ``data`` holds, a leading byte-order mark dropped.

    Bytes that are not UTF-8 or JSON raise ``UnicodeDecodeError`` or
    ``json.JSONDecodeError``, which gives the line and column; any other JSON
    value raises ``error``, naming ``what``.
    """
    obj = json.loads(data.decode("utf-8-sig"))
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object")
    return obj
