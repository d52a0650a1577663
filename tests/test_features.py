import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aspectcast.corpus import Quarter, RevenueSeries
from aspectcast.features import (
    FeatureError,
    FeatureMatrix,
    GrowthSeries,
    assemble,
    chronological_split,
    perception,
    revenue_growth,
)


def make_series(values, start=Quarter(2015, 4)):
    quarters = [start]
    for _ in values[1:]:
        quarters.append(quarters[-1].next())
    return RevenueSeries(quarters=tuple(quarters), values=tuple(values))


def make_growth(values, start=Quarter(2016, 1)):
    quarters = [start]
    for _ in values[1:]:
        quarters.append(quarters[-1].next())
    return GrowthSeries(quarters=tuple(quarters), values=tuple(values))


class TestRevenueGrowth:
    def test_flat(self):
        assert revenue_growth(make_series([100, 100])).values == (0.0,)

    def test_ten_percent(self):
        assert revenue_growth(make_series([100, 110])).values[0] == pytest.approx(0.10)

    def test_negative(self):
        assert revenue_growth(make_series([200, 150])).values[0] == pytest.approx(-0.25)

    def test_too_short(self):
        with pytest.raises(FeatureError):
            revenue_growth(make_series([100]))

    @given(
        st.floats(min_value=10.0, max_value=1e5),
        st.lists(st.floats(min_value=-0.5, max_value=1.0), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_reconstruction(self, base, growths):
        values = [base]
        for g in growths:
            values.append(values[-1] * (1.0 + g))
        growth = revenue_growth(make_series(values))
        rebuilt = [values[0]]
        for g in growth.values:
            rebuilt.append(rebuilt[-1] * (1.0 + g))
        assert np.allclose(rebuilt, values, rtol=1e-12)


class TestPerception:
    TABLE2 = [0.4215, 0.3612, 0.3182, 0.7092, 0.9196, 0.8876,
              0.9681, 0.4091, 0.9702, 0.1027, 0.9715, 0.9829]

    def test_twelve_review_mean(self):
        rec = perception("after_sales_experience", Quarter(2016, 4), self.TABLE2)
        assert rec.perception == pytest.approx(0.66848334, abs=1e-8)

    def test_single(self):
        rec = perception("cost_savings", Quarter(2016, 4), [0.5])
        assert rec.perception == 0.5

    def test_empty(self):
        # a cell without reviews has no record; assemble fills it
        with pytest.raises(FeatureError, match="no compounds"):
            perception("cost_savings", Quarter(2016, 4), [])

    def test_out_of_range(self):
        with pytest.raises(FeatureError):
            perception("cost_savings", Quarter(2016, 4), [1.5])

    @given(st.floats(min_value=-1, max_value=1), st.integers(min_value=1, max_value=30))
    def test_constant_list(self, c, n):
        rec = perception("cost_savings", Quarter(2016, 4), [c] * n)
        assert rec.perception == pytest.approx(c, abs=1e-12)

    @given(st.lists(st.floats(min_value=-1, max_value=1), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, compounds):
        a = perception("x", Quarter(2016, 4), compounds)
        b = perception("x", Quarter(2016, 4), list(reversed(compounds)))
        assert a.perception == pytest.approx(b.perception, abs=1e-12)


class TestAssemble:
    def test_shape_no_lag(self):
        growth = make_growth([0.1, 0.2])
        recs = [perception("cost_savings", q, [0.5]) for q in growth.quarters]
        m = assemble(recs, growth, ["cost_savings"], include_lag=False)
        assert m.X.shape == (2, 1)
        assert list(m.y) == [0.1, 0.2]

    def test_lag_drops_first(self):
        growth = make_growth([0.1, 0.2, 0.3])
        m = assemble([], growth, ["cost_savings"], include_lag=True)
        assert m.n_rows == 2
        assert m.columns == ["cost_savings", "lagged_growth"]
        assert list(m.X[:, 1]) == [0.1, 0.2]
        assert list(m.y) == [0.2, 0.3]

    def test_missing_cells_zero(self):
        growth = make_growth([0.1, 0.2])
        recs = [perception("cost_savings", growth.quarters[0], [0.4])]
        m = assemble(recs, growth, ["cost_savings"], include_lag=False)
        assert m.X[0, 0] == pytest.approx(0.4)
        assert m.X[1, 0] == 0.0

    def test_unknown_aspect(self):
        with pytest.raises(FeatureError, match="unknown aspect"):
            assemble([], make_growth([0.1, 0.2]), ["bogus"], include_lag=False)

    def test_unknown_aspect_even_with_a_record(self):
        growth = make_growth([0.1, 0.2])
        recs = [perception("bogus", q, [0.5]) for q in growth.quarters]
        with pytest.raises(FeatureError, match="unknown aspect id: 'bogus'"):
            assemble(recs, growth, ["cost_savings", "bogus"], include_lag=False)

    def test_duplicate_aspect(self):
        with pytest.raises(FeatureError, match=r"duplicate aspect ids: \['cost_savings'\]"):
            assemble([], make_growth([0.1, 0.2]), ["cost_savings", "lack_of_control", "cost_savings"],
                     include_lag=False)

    def test_13_vs_16_columns(self):
        from aspectcast.aspects import ASPECT_SET_13, ASPECT_SET_16

        growth = make_growth([0.1, 0.2])
        m13 = assemble([], growth, ASPECT_SET_13, include_lag=False)
        m16 = assemble([], growth, ASPECT_SET_16, include_lag=False)
        assert len(m13.columns) == 13
        assert len(m16.columns) == 16

    def test_csv_roundtrip(self):
        growth = make_growth([0.1, 0.2, 0.3])
        recs = [perception("cost_savings", q, [0.25]) for q in growth.quarters]
        m = assemble(recs, growth, ["cost_savings"], include_lag=True)
        m2 = FeatureMatrix.from_csv(m.to_csv())
        assert m2.columns == m.columns
        assert m2.quarters == m.quarters
        assert np.array_equal(m2.X, m.X)
        assert np.array_equal(m2.y, m.y)

    @pytest.mark.parametrize("header, problem", [
        ("quarter,a,growth", "line 1: header must be quarter,<columns...>,target_growth"),
        ("when,a,target_growth", "line 1: missing columns ['quarter']"),
        ("quarter,a,a,target_growth", "line 1: duplicate columns ['a']"),
    ])
    def test_csv_header_fault_comes_before_row_faults(self, header, problem):
        with pytest.raises(FeatureError) as caught:
            FeatureMatrix.from_csv(f"{header}\n2016Q9,x\n2016Q9,x\n".encode())
        assert str(caught.value) == problem


class TestChronologicalSplit:
    def make_matrix(self, n):
        growth = make_growth([0.01 * (i + 1) for i in range(n)])
        return assemble([], growth, ["cost_savings"], include_lag=False)

    def test_13_rows_2_1(self):
        train, test = chronological_split(self.make_matrix(13), (2, 1))
        assert (train.n_rows, test.n_rows) == (9, 4)

    def test_2_rows_1_1(self):
        train, test = chronological_split(self.make_matrix(2), (1, 1))
        assert (train.n_rows, test.n_rows) == (1, 1)

    def test_3_rows_2_1(self):
        train, test = chronological_split(self.make_matrix(3), (2, 1))
        assert (train.n_rows, test.n_rows) == (2, 1)

    def test_partition_preserves_order(self):
        m = self.make_matrix(10)
        train, test = chronological_split(m, (2, 1))
        assert train.quarters + test.quarters == m.quarters
        assert np.array_equal(np.concatenate([train.y, test.y]), m.y)

    def test_too_few_rows(self):
        with pytest.raises(FeatureError):
            chronological_split(self.make_matrix(1), (2, 1))

    def test_bad_ratio(self):
        with pytest.raises(FeatureError):
            chronological_split(self.make_matrix(5), (0, 1))
