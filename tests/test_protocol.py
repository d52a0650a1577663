"""The forecaster protocol: ``fit_spec`` on a training prefix, ``predict_with`` on a test block."""

import re

import numpy as np
import pytest

from aspectcast import evaluation
from aspectcast.features import chronological_split
from aspectcast.models import FitError, ForecasterSpec, fit_spec, predict_with
from aspectcast import pipeline
from aspectcast.pipeline import PipelineConfig, build_features, build_matrix, load_inputs, model_run


@pytest.fixture(scope="module")
def bundled():
    """The default bundled matrix (16 aspects, with lag), its 2:1 split and the growth series."""
    cfg = PipelineConfig.defaults()
    growth, perceptions = build_features(*load_inputs(cfg))
    train, test = chronological_split(build_matrix(cfg, growth, perceptions))
    return train, test, growth


@pytest.mark.parametrize("kind", ["lr", "mlp", "svr", "arima"])
def test_every_kind_predicts_the_test_block(bundled, kind):
    train, test, _ = bundled
    predicted = predict_with(fit_spec(ForecasterSpec(kind), train), test)
    assert predicted.shape == (test.n_rows,)
    assert np.all(np.isfinite(predicted))


class TestForecasterSpec:
    """A spec checks its params against its kind's keys once, when it is built."""

    def test_defaults_fill_the_params(self):
        params = {"gamma": 2.0}
        spec = ForecasterSpec("svr", params=params)
        assert (spec.label, spec.params) == ("svr", {"gamma": 2.0, "nu": 0.5, "C": 1.0})
        assert params == {"gamma": 2.0}  # the caller's dict is read, not filled

    @pytest.mark.parametrize("kind, params, problem", [
        ("svr", {"gama": 2.0}, "unknown keys ['gama']"),
        ("mlp", {"hidden_size": 0}, "hidden_size must be an integer >= 1, got 0"),
        ("lr", {"seed": 1}, "unknown keys ['seed']"),  # a spec argument is not a param
    ])
    def test_bad_param_is_a_fit_error(self, kind, params, problem):
        with pytest.raises(FitError, match=re.escape(problem)):
            ForecasterSpec(kind, params=params)


class TestArimaHistory:
    spec = ForecasterSpec("arima", params={"orders": (0, 0, 0)})

    def test_growth_through_last_training_quarter(self, bundled):
        train, test, growth = bundled
        history = [v for q, v in zip(growth.quarters, growth.values) if q <= train.quarters[-1]]
        # the lag column drops the first growth quarter from the matrix, not from the history
        assert len(history) == 22 and train.n_rows == 21
        predicted = predict_with(fit_spec(self.spec, train, growth), test)
        assert np.allclose(predicted, np.mean(history), atol=1e-10)
        assert not np.allclose(predicted, np.mean(train.y), atol=1e-10)

    def test_train_targets_without_growth(self, bundled):
        train, test, _ = bundled
        predicted = predict_with(fit_spec(self.spec, train), test)
        assert np.allclose(predicted, np.mean(train.y), atol=1e-10)


class TestModelRun:
    """A ``models`` entry's one path to its report row: ``model_run``, then ``backtest``."""

    def test_config_defaults_fill_the_entry(self):
        spec, aspect_ids = model_run({"kind": "svr"}, ("cost_savings",), 7)
        assert (spec.kind, spec.label, spec.seed, aspect_ids) == ("svr", "svr", 7, ("cost_savings",))
        assert spec.params == {"gamma": 5.0, "nu": 0.5, "C": 1.0}

    def test_entry_keys_win(self):
        entry = {"kind": "mlp", "label": "ANN", "aspects": "13", "seed": 2, "hidden_size": 4}
        spec, aspect_ids = model_run(entry, ("cost_savings",), 7)
        assert (spec.label, spec.seed, len(aspect_ids), spec.params["hidden_size"]) == ("ANN", 2, 13, 4)
        assert entry["aspects"] == "13"  # the entry is read, not consumed

    @pytest.mark.parametrize("where", ["entry", "config"])
    def test_empty_aspect_list_is_lag_only(self, monkeypatch, where):
        columns, backtest = [], pipeline.backtest
        monkeypatch.setattr(pipeline, "backtest",
                            lambda spec, matrix, *args, **kw: columns.append(matrix.columns)
                            or backtest(spec, matrix, *args, **kw))
        if where == "entry":
            cfg = PipelineConfig.from_dict({"models": [{"kind": "lr", "aspects": []}]})
        else:
            cfg = PipelineConfig.from_dict({"aspects": [], "models": [{"kind": "lr"}]})
        rows = pipeline.run_pipeline(cfg)
        # an empty list is no aspect at all, not the config's (or the default 16)
        assert columns == [["lagged_growth"]]
        assert [row.label for row in rows] == ["lr"]
        assert rows[0].theils_u == pytest.approx(0.741372, abs=5e-7)

    def test_metric_not_finite_names_the_model(self, monkeypatch):
        monkeypatch.setattr(evaluation, "predict_with", lambda model, test: np.full(test.n_rows, 1e200))
        cfg = PipelineConfig.from_dict({"models": [{"kind": "lr", "label": "LR-16"}]})
        with pytest.raises(pipeline.StageError, match="model 'LR-16': mse is not finite: inf"):
            pipeline.run_pipeline(cfg)
