"""The forecaster protocol: ``fit_spec`` on a training prefix, ``predict_with`` on a test block."""

import numpy as np
import pytest

from aspectcast.features import chronological_split
from aspectcast.models import ForecasterSpec, fit_spec, predict_with
from aspectcast.pipeline import PipelineConfig, build_features, build_matrix, load_inputs


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
    predicted = predict_with(fit_spec(ForecasterSpec.make(kind), train), test)
    assert predicted.shape == (test.n_rows,)
    assert np.all(np.isfinite(predicted))


class TestArimaHistory:
    spec = ForecasterSpec.make("arima", orders=(0, 0, 0))

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
