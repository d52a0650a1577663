import json
import math
from dataclasses import MISSING
from pathlib import Path

import pytest

from aspectcast import schema
from aspectcast.models import SPECS
from aspectcast.pipeline import MODEL_ENTRY_KEYS, PipelineConfig
from aspectcast.sentiment import HeuristicConfig

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| where | key | type | default | range |"


def declared_groups():
    return [("config", schema.keys(PipelineConfig)), ("model entry", MODEL_ENTRY_KEYS),
            *((kind, schema.keys(spec)) for kind, spec in SPECS.items()),
            ("heuristics", schema.keys(HeuristicConfig))]


def table_row(where, k) -> str:
    kind = {"aspects": "`13`, `16` or list of aspect ids",
            "models": "list of model entries"}.get(k.type, k.type)
    if k.choices:
        kind = " or ".join(f"`{c}`" for c in k.choices)
    if k.count:
        kind = f"list of {k.count} {kind}s"
    if k.default is None:
        kind += " or `null`"
    if k.default is MISSING:
        default = "—"
    elif k.name == "models":
        default = f"the {len(k.default)} below"
    else:
        default = f"`{json.dumps(k.default)}`"
    return f"| {where} | `{k.name}` | {kind} | {default} | {k.range() or '—'} |"


def test_readme_table_matches_declared_keys():
    lines = README.read_text("utf-8").splitlines()
    start = lines.index(HEADER) + 2
    end = lines.index("", start)
    expected = [table_row(where, k) for where, keys in declared_groups() for k in keys]
    assert lines[start:end] == expected


def test_param_names_per_kind():
    assert {kind: [k.name for k in schema.keys(spec)] for kind, spec in SPECS.items()} == {
        "lr": ["selection", "threshold"],
        "mlp": ["hidden_size", "max_epochs", "lambda0", "validation_patience"],
        "svr": ["gamma", "nu", "C"],
        "arima": ["orders"],
    }


@pytest.mark.parametrize("value, ok", [
    (1, True), (0.5, True), (1e300, True), (10 ** 400, False),
    (0, False), (-1, False), (math.inf, False), (math.nan, False), (True, False),
    ("1", False), (None, False), ([1], False), (10 ** 300, True),
])
def test_positive_number(value, ok):
    assert schema.Key("number", low=0, open_low=True).accepts(value) is ok


@pytest.mark.parametrize("value, ok", [
    ([0, 0, 0], True), ((2, 1, 3), True), ([1, 0], False), ([1, 0, 0, 0], False),
    ([True, 0, 0], False), ([1.0, 0, 0], False), ([-1, 0, 0], False), ("100", False),
])
def test_three_non_negative_integers(value, ok):
    assert schema.keys(SPECS["arima"])[0].accepts(value) is ok
