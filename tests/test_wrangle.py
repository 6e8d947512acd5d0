import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentlab.errors import EmptyInputError
from rentlab.report import StageReport
from rentlab.tabular import Column, Table
from rentlab.wrangle import (
    GapSpec,
    fill_calendar_gap,
    impute_global_median,
    impute_group_mean,
    iqr_fences,
    knn_impute_geo,
    quantile,
    remove_outliers,
)


def _numeric(values):
    return Column.of("numeric", values)


class TestQuantile:
    def test_q25_of_five_values(self):
        assert quantile(_numeric([1, 2, 3, 4, 100]), 0.25) == 2.0

    def test_q75_of_five_values(self):
        assert quantile(_numeric([1, 2, 3, 4, 100]), 0.75) == 4.0

    def test_single_value(self):
        for q in (0.0, 0.25, 0.5, 1.0):
            assert quantile(_numeric([7]), q) == 7.0

    def test_missing_excluded(self):
        assert quantile(_numeric([None, 1, None, 3]), 0.5) == 2.0

    def test_all_missing_raises(self):
        with pytest.raises(EmptyInputError):
            quantile(_numeric([None, None]), 0.5)

    def test_bad_q(self):
        with pytest.raises(ValueError):
            quantile(_numeric([1.0]), 1.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_input_raises_naming_it(self, bad):
        with pytest.raises(ValueError, match=f"non-finite input value {bad!r}"):
            quantile(_numeric([1.0, None, bad, 3.0]), 0.5)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_numpy_linear_interpolation(self, values, q):
        ours = quantile(_numeric(values), q)
        oracle = float(np.percentile(np.array(values), q * 100.0))
        assert ours == pytest.approx(oracle, abs=1e-9 * (1 + abs(oracle)))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=41,
        ).filter(lambda xs: len(xs) % 2 == 1)
    )
    def test_median_equals_middle_order_statistic(self, values):
        middle = sorted(values)[len(values) // 2]
        assert quantile(_numeric(values), 0.5) == middle


class TestIqrFences:
    def test_spec_example(self):
        fences = iqr_fences(_numeric([1, 2, 3, 4, 100]), 0.5)
        assert fences.q1 == 2.0
        assert fences.q3 == 4.0
        assert fences.lower == 1.0
        assert fences.upper == 5.0

    def test_constant_column(self):
        fences = iqr_fences(_numeric([5, 5, 5]), 0.5)
        assert fences.lower == fences.upper == 5.0

    def test_zero_multiplier(self):
        fences = iqr_fences(_numeric([1, 2, 3, 4, 100]), 0.0)
        assert fences.lower == fences.q1
        assert fences.upper == fences.q3

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            iqr_fences(_numeric([1, 2, 3]), -0.1)

    def test_non_finite_input_raises(self):
        with pytest.raises(ValueError, match="non-finite input value nan"):
            iqr_fences(_numeric([1.0, 2.0, float("nan"), 4.0]), 0.5)


def _price_table(values):
    return Table.from_dict({"price": ("numeric", list(values))})


class TestRemoveOutliers:
    def test_spec_example_removes_100(self):
        out = remove_outliers(_price_table([1, 2, 3, 4, 100]), "price", 0.5)
        assert out.cells("price") == [1.0, 2.0, 3.0, 4.0]

    def test_all_inside_is_identity(self):
        t = _price_table([10, 11, 12, 13])
        assert remove_outliers(t, "price", 0.5) == t

    def test_missing_rows_retained(self):
        out = remove_outliers(_price_table([1, 2, None, 3, 4, 100]), "price", 0.5)
        assert None in out.cells("price")
        assert 100.0 not in out.cells("price")

    def test_non_numeric_column_rejected(self):
        t = Table.from_dict({"price": ("text", ["a"])})
        with pytest.raises(TypeError):
            remove_outliers(t, "price", 0.5)

    def test_idempotent_at_fixed_fences(self):
        # fences computed once on the original data, applied twice
        values = [1.0, 2.0, 3.0, 4.0, 100.0, -50.0]
        fences = iqr_fences(_numeric(values), 0.5)
        once = [v for v in values if fences.contains(v)]
        twice = [v for v in once if fences.contains(v)]
        assert once == twice

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_retained_values_inside_fences(self, values, multiplier):
        fences = iqr_fences(_numeric(values), multiplier)
        out = remove_outliers(_price_table(values), "price", multiplier)
        for v in out.cells("price"):
            assert fences.lower <= v <= fences.upper

    def test_post_filter_spread_shrinks(self):
        # boxplot-narrowing property: post-filter max is bounded by the fence
        values = [10.0, 12.0, 14.0, 16.0, 18.0, 500.0, -400.0]
        fences = iqr_fences(_numeric(values), 0.5)
        out = remove_outliers(_price_table(values), "price", 0.5)
        kept = out.cells("price")
        assert max(kept) <= fences.upper
        assert min(kept) >= fences.lower
        assert max(kept) - min(kept) < max(values) - min(values)


class TestImputeGroupMean:
    def _table(self, hosts, scores):
        return Table.from_dict(
            {"host_id": ("integer", hosts), "score": ("numeric", scores)}
        )

    def test_mean_of_two_values(self):
        t = self._table([1, 1, 1], [4.0, 5.0, None])
        out = impute_group_mean(t, "score", "host_id")
        assert out.cells("score") == [4.0, 5.0, 4.5]

    def test_group_entirely_missing_stays_missing(self):
        t = self._table([1, 1], [None, None])
        out = impute_group_mean(t, "score", "host_id")
        assert out.cells("score") == [None, None]

    def test_singleton_donor(self):
        t = self._table([2, 2], [4.8, None])
        out = impute_group_mean(t, "score", "host_id")
        assert out.cells("score") == [4.8, 4.8]

    def test_non_missing_cells_untouched(self):
        t = self._table([1, 2, 1], [4.0, 3.0, None])
        out = impute_group_mean(t, "score", "host_id")
        assert out.cells("score")[:2] == [4.0, 3.0]


class TestImputeGlobalMedian:
    def test_median_fill(self):
        t = _price_table([1.0, None, 3.0])
        out = impute_global_median(t, "price")
        assert out.cells("price") == [1.0, 2.0, 3.0]

    def test_no_missing_identity_values(self):
        t = _price_table([1.0, 3.0])
        out = impute_global_median(t, "price")
        assert out.cells("price") == [1.0, 3.0]

    def test_singleton_median(self):
        out = impute_global_median(_price_table([5.0, None]), "price")
        assert out.cells("price") == [5.0, 5.0]

    def test_all_missing_raises(self):
        with pytest.raises(EmptyInputError):
            impute_global_median(_price_table([None, None]), "price")

    def test_missing_count_non_increasing_through_chain(self):
        t = Table.from_dict(
            {
                "host_id": ("integer", [1, 1, 2, 3]),
                "score": ("numeric", [4.0, None, None, None]),
            }
        )
        def n_missing(table):
            return table.column("score").n_missing

        step1 = impute_group_mean(t, "score", "host_id")
        step2 = impute_global_median(step1, "score")
        assert n_missing(step1) <= n_missing(t)
        assert n_missing(step2) <= n_missing(step1)
        assert n_missing(step2) == 0


class TestKnnImputeGeo:
    def _table(self, lats, lons, scores):
        return Table.from_dict(
            {
                "latitude": ("numeric", lats),
                "longitude": ("numeric", lons),
                "score": ("numeric", scores),
            }
        )

    def test_all_donors_same_score(self):
        t = self._table([0.0, 0.1, 0.2], [0.0, 0.0, 0.0], [5.0, 5.0, None])
        out = knn_impute_geo(t, "score", k=2)
        assert out.cells("score")[2] == 5.0

    def test_k1_nearest_donor(self):
        t = self._table([0.0, 1.0, 0.01], [0.0, 0.0, 0.0], [4.7, 1.0, None])
        out = knn_impute_geo(t, "score", k=1)
        assert out.cells("score")[2] == 4.7

    def test_k10_matches_bruteforce_sort(self):
        rng = np.random.default_rng(42)
        lats = rng.uniform(30.0, 30.5, size=13)
        lons = rng.uniform(-98.0, -97.5, size=13)
        scores = list(rng.uniform(3.0, 5.0, size=12).round(3)) + [None]
        t = self._table([float(v) for v in lats], [float(v) for v in lons], scores)
        out = knn_impute_geo(t, "score", k=10)

        from rentlab.features import GeoPoint, haversine_km

        here = GeoPoint(float(lats[12]), float(lons[12]))
        dists = sorted(
            (haversine_km(here, GeoPoint(float(lats[i]), float(lons[i]))), scores[i])
            for i in range(12)
        )
        expected = sum(s for _, s in dists[:10]) / 10
        assert out.cells("score")[12] == pytest.approx(expected, abs=1e-12)

    def test_fewer_donors_than_k_flagged(self):
        report = StageReport()
        t = self._table([0.0, 0.1, 0.2], [0.0] * 3, [5.0, None, None])
        out = knn_impute_geo(t, "score", k=10, report=report)
        assert out.column("score").n_missing == 0
        assert any("short_of_donors" in e.flags for e in report.entries)

    def test_far_donors_flagged(self):
        report = StageReport()
        t = self._table([0.0, 45.0], [0.0, 90.0], [5.0, None])
        knn_impute_geo(t, "score", k=1, warn_radius_km=10.0, report=report)
        assert any("beyond_10.0km" in e.flags for e in report.entries)

    def test_zero_donors_raises(self):
        t = self._table([0.0, 1.0], [0.0, 0.0], [None, None])
        with pytest.raises(EmptyInputError):
            knn_impute_geo(t, "score", k=1)


def _calendar(rows):
    return Table.from_dict(
        {
            "listing_id": ("integer", [r[0] for r in rows]),
            "date": ("date", [r[1] for r in rows]),
            "price": ("numeric", [r[2] for r in rows]),
        }
    )


class TestFillCalendarGap:
    def test_constant_monday_average(self):
        mondays = [dt.date(2023, 1, 2), dt.date(2023, 1, 9)]
        cal = _calendar([(1, d, 100.0) for d in mondays])
        gap = GapSpec(dt.date(2023, 1, 16), dt.date(2023, 1, 16))  # a Monday
        out = fill_calendar_gap(cal, gap)
        added = [r for r in range(out.n_rows) if out.cells("date")[r] == gap.start]
        assert len(added) == 1
        assert out.cells("price")[added[0]] == 100.0

    def test_one_day_gap_one_row_per_listing(self):
        cal = _calendar(
            [(1, dt.date(2023, 1, 2), 100.0), (2, dt.date(2023, 1, 2), 50.0)]
        )
        gap = GapSpec(dt.date(2023, 2, 6), dt.date(2023, 2, 6))
        out = fill_calendar_gap(cal, gap)
        assert out.n_rows == 4

    def test_two_value_day_of_week_mean(self):
        cal = _calendar(
            [(1, dt.date(2023, 1, 2), 90.0), (1, dt.date(2023, 1, 9), 110.0)]
        )
        gap = GapSpec(dt.date(2023, 1, 23), dt.date(2023, 1, 23))  # Monday
        out = fill_calendar_gap(cal, gap)
        new_row = [i for i in range(out.n_rows) if out.cells("date")[i] == gap.start]
        assert out.cells("price")[new_row[0]] == 100.0

    def test_fallback_to_overall_mean(self):
        # history only on Mondays; gap date is a Tuesday
        cal = _calendar(
            [(1, dt.date(2023, 1, 2), 90.0), (1, dt.date(2023, 1, 9), 110.0)]
        )
        gap = GapSpec(dt.date(2023, 1, 24), dt.date(2023, 1, 24))
        out = fill_calendar_gap(cal, gap)
        new_row = [i for i in range(out.n_rows) if out.cells("date")[i] == gap.start]
        assert out.cells("price")[new_row[0]] == 100.0

    def test_row_count_and_uniqueness(self):
        listings = [1, 2, 3]
        history = [
            (lid, dt.date(2023, 1, 2 + i), float(50 + 10 * lid))
            for lid in listings
            for i in range(5)
        ]
        cal = _calendar(history)
        gap = GapSpec(dt.date(2023, 2, 1), dt.date(2023, 2, 7))
        out = fill_calendar_gap(cal, gap)
        assert out.n_rows == cal.n_rows + len(listings) * 7
        keys = list(zip(out.cells("listing_id"), out.cells("date")))
        assert len(keys) == len(set(keys))

    def test_sorted_by_listing_then_date(self):
        cal = _calendar(
            [(2, dt.date(2023, 1, 3), 70.0), (1, dt.date(2023, 1, 2), 90.0)]
        )
        gap = GapSpec(dt.date(2023, 1, 10), dt.date(2023, 1, 11))
        out = fill_calendar_gap(cal, gap)
        keys = list(zip(out.cells("listing_id"), out.cells("date")))
        assert keys == sorted(keys)

    def test_empty_calendar_raises(self):
        empty = _calendar([])
        with pytest.raises(EmptyInputError):
            fill_calendar_gap(empty, GapSpec(dt.date(2023, 1, 1), dt.date(2023, 1, 2)))

    def test_uncleaned_currency_prices_rejected(self):
        from rentlab.errors import SchemaError

        cal = Table.from_dict(
            {
                "listing_id": ("integer", [1]),
                "date": ("date", [dt.date(2023, 1, 2)]),
                "price": ("text", ["$100.00"]),
            }
        )
        with pytest.raises(SchemaError):
            fill_calendar_gap(cal, GapSpec(dt.date(2023, 2, 1), dt.date(2023, 2, 2)))

    def test_gap_spec_validates_order(self):
        with pytest.raises(ValueError):
            GapSpec(dt.date(2023, 1, 2), dt.date(2023, 1, 1))


def test_report_accumulates_rows_affected():
    report = StageReport()
    remove_outliers(_price_table([1, 2, 3, 4, 100]), "price", 0.5, report=report)
    impute_global_median(_price_table([1.0, None]), "price", report=report)
    table = report.to_table()
    assert table.cells("operation") == ["remove_outliers", "impute_global_median"]
    assert table.cells("rows_affected") == [1, 1]
