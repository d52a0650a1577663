import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aspectcast.evaluation import (
    EvalRow,
    MetricError,
    backtest,
    emit_plot_csv,
    emit_report_csv,
    emit_report_json,
    mse,
    rmse,
    score_row,
    theils_u,
)
from aspectcast.models import ForecasterSpec

from test_linear import matrix


class TestMse:
    def test_hand_example(self):
        assert mse([0.1, 0.2], [0.2, 0.4]) == pytest.approx(0.025, abs=1e-15)

    def test_perfect(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(MetricError, match="mismatch"):
            mse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(MetricError, match="empty"):
            mse([], [])

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_rmse_consistent(self, values):
        zeros = [0.0] * len(values)
        m = mse(values, zeros)
        assert m >= 0.0
        assert rmse(values, zeros) == pytest.approx(math.sqrt(m), abs=1e-15)


class TestRmse:
    def test_table3_svm_13(self):
        # rmse of a residual vector built to have the target mean square
        n = 4
        resid = math.sqrt(0.000143942)
        actual = [0.0] * n
        predicted = [resid] * n
        assert rmse(actual, predicted) == pytest.approx(0.011997583, abs=1e-9)

    def test_table3_svm_16(self):
        assert math.sqrt(0.000117719) == pytest.approx(0.010849839, abs=1e-9)


class TestTheilsU:
    def test_naive_is_one(self):
        actual = [0.3, 0.1, 0.4, 0.15]
        history = 0.2
        predicted = [history] + actual[:-1]  # no-change forecast
        assert theils_u(actual, predicted, "U2", history=history) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_is_zero(self):
        actual = [0.3, 0.1, 0.4]
        assert theils_u(actual, actual, "U2", history=0.2) == 0.0

    def test_hand_example(self):
        # actual [1,2,4], predicted [1.5,2.5,3.5], history 0.5:
        # sqrt(0.25+0.25+0.25) / sqrt(0.25+1+4)
        value = theils_u([1, 2, 4], [1.5, 2.5, 3.5], "U2", history=0.5)
        assert value == pytest.approx(0.3779644730092272, abs=1e-12)

    def test_u1_formula(self):
        a, p = [1.0, 2.0], [2.0, 2.0]
        expected = rmse(a, p) / (math.sqrt(np.mean(np.square(a))) + math.sqrt(np.mean(np.square(p))))
        assert theils_u(a, p, "U1") == pytest.approx(expected, abs=1e-15)

    def test_no_history_drops_first_step(self):
        a = [1.0, 2.0, 4.0]
        p = [9.9, 2.5, 3.5]  # first entry must not matter
        expected = math.sqrt(0.25 + 0.25) / math.sqrt(1.0 + 4.0)
        assert theils_u(a, p, "U2") == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, k):
        a = np.array([1.0, 2.0, 4.0, 3.0])
        p = np.array([1.5, 2.5, 3.5, 2.0])
        for variant, kwargs in [("U1", {}), ("U2", {"history": 0.5})]:
            scaled_kwargs = {key: v * k for key, v in kwargs.items()}
            assert theils_u(k * a, k * p, variant, **scaled_kwargs) == pytest.approx(
                theils_u(a, p, variant, **kwargs), rel=1e-9
            )

    def test_order_sensitive(self):
        a = [1.0, 2.0, 4.0]
        p = [1.5, 2.5, 3.5]
        forward = theils_u(a, p, "U2", history=0.5)
        backward = theils_u(a[::-1], p[::-1], "U2", history=0.5)
        assert forward != pytest.approx(backward)
        # while MSE ignores ordering entirely
        assert mse(a, p) == pytest.approx(mse(a[::-1], p[::-1]))

    def test_constant_actual_undefined(self):
        with pytest.raises(MetricError, match="undefined"):
            theils_u([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], "U2", history=1.0)

    def test_unknown_variant(self):
        with pytest.raises(MetricError, match="variant"):
            theils_u([1.0, 2.0], [1.0, 2.0], "U3")

    def test_u2_needs_two_points_without_history(self):
        with pytest.raises(MetricError):
            theils_u([1.0], [1.0], "U2")


@pytest.mark.parametrize("predicted, problem", [
    (1e200, "mse is not finite: inf"),  # squares overflow, without a RuntimeWarning
    (math.nan, "mse is not finite: nan"),
])
def test_score_row_refuses_a_metric_that_is_not_finite(predicted, problem):
    m = matrix(np.zeros((3, 1)), [0.1, 0.2, 0.3], columns=["x"])
    with pytest.raises(MetricError, match=problem):
        score_row("A", m, [predicted] * 3)


class TestBacktest:
    def make_line_matrix(self, n=12):
        x = np.linspace(0.0, 1.0, n)
        return matrix(x[:, None], 0.1 + 0.2 * x, columns=["x"])

    def test_linear_model_perfect_fit(self):
        m = self.make_line_matrix()
        row = backtest(ForecasterSpec("lr", label="LR"), m)
        assert row.label == "LR"
        assert row.mse == pytest.approx(0.0, abs=1e-16)
        assert row.theils_u == pytest.approx(0.0, abs=1e-6)
        assert len(row.actual) == len(row.predicted) == len(row.quarters) == 4

    def test_arima_uses_target_series(self):
        m = self.make_line_matrix()
        row = backtest(ForecasterSpec("arima", label="ARIMA", params={"orders": (0, 0, 0)}), m)
        train_mean = np.mean(m.y[:8])
        assert np.allclose(row.predicted, train_mean, atol=1e-8)

    def test_failure_wrapped(self):
        m = self.make_line_matrix(n=2)  # one-row training set cannot fit OLS
        with pytest.raises(MetricError, match="failed to fit"):
            backtest(ForecasterSpec("lr", label="LR"), m)


class TestEmit:
    def sample_rows(self):
        return [
            EvalRow("A", 0.000583622, 0.024158476, 0.394573683,
                    quarters=["2018Q3", "2018Q4"], actual=[0.1, 0.2], predicted=[0.12, 0.18]),
            EvalRow("B", 0.000117719, 0.010849839, 0.343687709,
                    quarters=["2018Q3", "2018Q4"], actual=[0.1, 0.2], predicted=[0.11, 0.21]),
        ]

    def test_report_csv_layout(self):
        text = emit_report_csv(self.sample_rows()).decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == "model,mse,rmse,theils_u"
        assert lines[1] == "A,0.000583622,0.024158476,0.394573683"
        assert len(lines) == 3

    def test_report_json_roundtrip(self):
        obj = json.loads(emit_report_json(self.sample_rows()))
        assert [row["model"] for row in obj] == ["A", "B"]
        assert obj[0]["mse"] == pytest.approx(0.000583622)
        assert obj[1]["quarters"] == ["2018Q3", "2018Q4"]

    def test_plot_csv_layout(self):
        lines = emit_plot_csv(self.sample_rows()).decode("utf-8").splitlines()
        assert lines[0] == "quarter,actual,A,B"
        assert lines[1].startswith("2018Q3,0.100000000,0.120000000,0.110000000")
        assert len(lines) == 3

    def test_plot_csv_quarter_mismatch(self):
        rows = self.sample_rows()
        rows[1].quarters = ["2010Q1", "2010Q2"]
        with pytest.raises(MetricError, match="share test quarters"):
            emit_plot_csv(rows)
