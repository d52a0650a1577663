"""Differential tests: the OLS fit and its stepwise selections against a frozen
copy of the fit they replaced, which took its p-values from ``scipy.stats.t.sf``.

``beta``, and every fit's selected features, intercept and coefficients, must
agree bit for bit (compared by ``repr``, so inf, nan and the sign of zero
count), and both must fail with the same error, because report bytes are pinned
downstream. The p-values now come from ``linear._t_two_sided``, a stdlib
continued fraction, so they agree to rounding: their nan, inf and zero
positions match exactly, other values within a relative 1e-12 where the
reference is below 0.999, and within 1e-8 above it, where the reference itself
loses digits (at one degree of freedom and |t| < 1e-8 it returns 1.0 for
1 - 2|t|/pi). ``TestGeneratedEquivalence.test_all`` checks that an
all-features fit still returns the frozen fit's coefficients.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from aspectcast.features import chronological_split
from aspectcast.models import FitError, LinearModel, fit_lr
from aspectcast.models.linear import _ols
from aspectcast.pipeline import PipelineConfig, build_features, build_matrix, load_inputs
from test_linear import matrix

THRESHOLDS = [0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0]


# --- frozen references -------------------------------------------------------


def reference_ols(X, y, columns):
    n, k = X.shape
    design = np.column_stack([np.ones(n), X])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    tol = max(n, k + 1) * np.finfo(float).eps * (diag.max() if diag.size else 1.0)
    if np.any(diag < tol):
        bad = [("intercept" if j == 0 else columns[j - 1]) for j in np.where(diag < tol)[0]]
        raise FitError(f"rank-deficient design, collinear columns: {bad}")
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - design @ beta
    dof = n - (k + 1)
    if dof > 0:
        sigma2 = float(residuals @ residuals) / dof
        rinv = np.linalg.inv(r)
        var_beta = sigma2 * np.sum(rinv * rinv, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tstats = beta / np.sqrt(var_beta)
        pvalues = 2.0 * stats.t.sf(np.abs(tstats), dof)
    else:
        pvalues = np.zeros(k + 1)
    return beta, pvalues


def reference_fit_lr(train, selection="all", threshold=0.3):
    """``fit_lr`` as it was, on the frozen ``reference_ols``."""
    columns = list(train.columns)
    if train.n_rows < len(columns) + 1:
        raise FitError("too few rows")
    if selection not in ("all", "backward_stepwise"):
        raise FitError(f"unknown selection mode: {selection!r}")
    active = list(columns)
    while True:
        idx = [columns.index(c) for c in active]
        X = train.X[:, idx] if idx else np.empty((train.n_rows, 0))
        beta, pvalues = reference_ols(X, train.y, active)
        if selection == "all" or not active:
            break
        feature_p = pvalues[1:]
        worst = int(np.argmax(feature_p)) if len(feature_p) else -1
        if worst < 0 or feature_p[worst] <= threshold:
            break
        active.pop(worst)
    return beta, active


# --- comparison --------------------------------------------------------------


def _reprs(values):
    return [repr(float(v)) for v in list(values)]


def _ols_outcome(ols, X, y, columns):
    try:
        beta, pvalues = ols(X, y, columns)
    except Exception as e:
        return type(e), str(e)
    return _reprs(beta), np.asarray(pvalues, dtype=float)


def assert_close_pvalues(got, expected):
    # an rtol alone leaves no slack at a zero, and inf and nan must match as such
    near_one = expected >= 0.999
    np.testing.assert_allclose(got[~near_one], expected[~near_one], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[near_one], expected[near_one], rtol=0, atol=1e-8)


def assert_same_ols(X, y, columns=None):
    """Returns the reference outcome, with the p-values as ``repr`` strings."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    columns = columns or [f"f{i}" for i in range(X.shape[1])]
    expected = _ols_outcome(reference_ols, X, y, columns)
    got = _ols_outcome(_ols, X, y, columns)
    if isinstance(expected[0], type):  # the same error
        assert got == expected
        return expected
    assert got[0] == expected[0]
    assert_close_pvalues(got[1], expected[1])
    return expected[0], _reprs(expected[1])


def _fit_outcome(fit, train, selection, threshold):
    try:
        model = fit(train, selection, threshold)
    except Exception as e:
        return type(e)
    return model.selected_features, repr(model.intercept), _reprs(model.coefficients.values())


def _reference_model(train, selection, threshold):
    beta, active = reference_fit_lr(train, selection, threshold)
    return LinearModel(float(beta[0]), dict(zip(active, map(float, beta[1:]))), active)


def assert_same_fit(train, selection, threshold):
    expected = _fit_outcome(_reference_model, train, selection, threshold)
    assert _fit_outcome(fit_lr, train, selection, threshold) == expected


def _bundled_matrix(aspects, include_lag):
    cfg = PipelineConfig.defaults(aspects=aspects, include_lag=include_lag)
    return build_matrix(cfg, *build_features(*load_inputs(cfg)))


class TestBundledEquivalence:
    @pytest.mark.parametrize("include_lag", [True, False], ids=["lag", "nolag"])
    @pytest.mark.parametrize("aspects", [13, 16])
    def test_bundled_matrices(self, aspects, include_lag):
        full = _bundled_matrix(aspects, include_lag)
        # the 2:1 training prefix a backtest fits on, and the whole matrix
        for m in (chronological_split(full)[0], full):
            assert_same_ols(m.X, m.y, list(m.columns))
            for selection in ("all", "backward_stepwise"):
                for threshold in THRESHOLDS:
                    assert_same_fit(m, selection, threshold)

    def test_stepwise_drops_features_on_bundled_16(self):
        # the comparison above must include a fit where selection removes features
        train = chronological_split(_bundled_matrix(16, True))[0]
        model = fit_lr(train, "backward_stepwise", 0.3)
        assert 0 < len(model.selected_features) < len(train.columns)


class TestEdgeCases:
    def test_exact_fit_infinite_t(self):
        # intercept-only QR on 4 rows is exact, so residuals and sigma2 are 0, |t| is inf
        _, pvalues = assert_same_ols(np.empty((4, 0)), [2.5, 2.5, 2.5, 2.5])
        assert pvalues == ["0.0"]
        _, pvalues = assert_same_ols(np.empty((4, 0)), [-3.0, -3.0, -3.0, -3.0])
        assert pvalues == ["0.0"]

    def test_zero_target_nan_t(self):
        # beta = 0 and sigma2 = 0, so every t-statistic is 0/0
        _, pvalues = assert_same_ols([[1.0], [2.0], [4.0], [7.0]], np.zeros(4))
        assert pvalues == ["nan", "nan"]

    def test_zero_target_stepwise(self):
        m = matrix([[1.0, 0.5], [2.0, -1.0], [4.0, 3.0], [7.0, 0.0], [3.0, 2.0]], np.zeros(5))
        for threshold in THRESHOLDS:
            assert_same_fit(m, "backward_stepwise", threshold)

    def test_one_residual_dof(self):
        rng = np.random.default_rng(11)
        for k in range(4):
            X = rng.normal(size=(k + 2, k))
            y = rng.normal(size=k + 2)
            assert_same_ols(X, y)
            for threshold in THRESHOLDS:
                assert_same_fit(matrix(X, y), "backward_stepwise", threshold)

    @pytest.mark.parametrize("noise", [1e-6, 1e-10, 1e-14, 1e-300])
    def test_very_large_t(self, noise):
        rng = np.random.default_rng(7)
        for n in (4, 6, 30):
            X = rng.normal(size=(n, 2))
            y = 1.0 + X @ [3.0, -2.0] + noise * rng.normal(size=n)
            _, pvalues = assert_same_ols(X, y)
            assert pvalues[0] != "nan"

    def test_zero_residual_dof(self):
        assert_same_ols([[1.0], [2.0]], [1.0, 5.0])

    def test_rank_deficient(self):
        X = np.ones((6, 2))
        with pytest.raises(FitError):
            _ols(X, np.arange(6.0), ["a", "b"])
        assert_same_ols(X, np.arange(6.0), ["a", "b"])


entries = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324]),
)
SCALES = st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150])


@st.composite
def designs(draw):
    k = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=k + 1, max_value=k + 12))
    X = np.asarray(draw(st.lists(entries, min_size=n * k, max_size=n * k)), dtype=float)
    X = X.reshape(n, k) * draw(SCALES)
    if draw(st.booleans()):
        # a target the design fits exactly, up to rounding, gives huge |t|
        coefs = np.asarray(draw(st.lists(entries, min_size=k, max_size=k)), dtype=float)
        y = draw(entries) + X @ coefs
    else:
        y = np.asarray(draw(st.lists(entries, min_size=n, max_size=n)), dtype=float)
    return X, y * draw(SCALES)


class TestGeneratedEquivalence:
    @given(designs())
    @settings(max_examples=300, deadline=None)
    def test_ols(self, design):
        X, y = design
        with np.errstate(all="ignore"):
            assert_same_ols(X, y)

    @given(designs(), st.sampled_from(THRESHOLDS))
    @settings(max_examples=200, deadline=None)
    def test_stepwise(self, design, threshold):
        X, y = design
        with np.errstate(all="ignore"):
            assert_same_fit(matrix(X, y), "backward_stepwise", threshold)

    # the designs of TestEdgeCases: an exact intercept-only fit (|t| = inf),
    # a zero target (t = 0/0) and collinear columns (FitError)
    @given(designs())
    @example((np.empty((4, 0)), np.full(4, 2.5)))
    @example((np.array([[1.0], [2.0], [4.0], [7.0]]), np.zeros(4)))
    @example((np.ones((6, 2)), np.arange(6.0)))
    @settings(max_examples=300, deadline=None)
    def test_all(self, design):
        X, y = design
        with np.errstate(all="ignore"):
            assert_same_fit(matrix(X, y), "all", 0.3)
