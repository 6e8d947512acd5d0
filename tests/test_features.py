import csv
import datetime as dt
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentlab import tabular
from rentlab.errors import AssemblyError, SchemaError
from rentlab.features import (
    EARTH_RADIUS_KM,
    ID_COLUMNS,
    FeatureMatrix,
    GeoPoint,
    PoiSet,
    assemble_matrix,
    binarize_amenities,
    default_pois,
    expand_date,
    haversine_km,
    join_matrix,
    load_pois,
    matrix_from_csv,
    matrix_to_csv,
    one_hot,
    parse_amenities,
    poi_distance_features,
    TARGET_HEADER,
    standardize,
    top_k_amenities,
)
from rentlab.models import fit_ols
from rentlab.tabular import Column, Table, inner_join

geo_points = st.builds(
    GeoPoint,
    st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
)


class TestHaversine:
    def test_identical_points(self):
        p = GeoPoint(30.0, -97.0)
        assert haversine_km(p, p) == 0.0

    def test_one_degree_of_longitude_at_equator(self):
        arc = 2 * math.pi * EARTH_RADIUS_KM / 360.0
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(arc, abs=1e-3)
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(111.195, abs=1e-3)

    def test_antipodal_points(self):
        half = math.pi * EARTH_RADIUS_KM
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(half, abs=0.1)
        assert haversine_km(GeoPoint(90, 0), GeoPoint(-90, 0)) == pytest.approx(half, abs=0.1)

    @settings(max_examples=200, deadline=None)
    @given(geo_points, geo_points)
    def test_symmetry(self, a, b):
        assert haversine_km(a, b) == haversine_km(b, a)
        assert haversine_km(a, b) >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(geo_points, geo_points, geo_points)
    def test_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-9

    def test_geopoint_range_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 200.0)


def _listing_table():
    return Table.from_dict(
        {
            "latitude": ("numeric", [30.27, 30.30, 30.25]),
            "longitude": ("numeric", [-97.74, -97.70, -97.80]),
        }
    )


class TestPoiDistances:
    def test_thirteen_default_pois_make_thirteen_columns(self):
        pois = default_pois()
        assert len(pois) == 13
        out, bad = poi_distance_features(_listing_table(), pois)
        new_cols = [n for n in out.names if n.startswith("dist_")]
        assert len(new_cols) == 13
        assert bad == []

    def test_listing_at_poi_gets_zero(self):
        pois = PoiSet((("spot", GeoPoint(30.27, -97.74)),))
        out, _ = poi_distance_features(_listing_table(), pois)
        assert out.cells("dist_spot_km")[0] == 0.0

    def test_values_match_pairwise_haversine(self):
        pois = PoiSet((("a", GeoPoint(30.26, -97.75)), ("b", GeoPoint(30.40, -97.60))))
        table = _listing_table()
        out, _ = poi_distance_features(table, pois)
        for i in range(table.n_rows):
            here = GeoPoint(table.cells("latitude")[i], table.cells("longitude")[i])
            for name, point in pois.pois:
                assert out.cells(f"dist_{name}_km")[i] == haversine_km(here, point)

    def test_missing_coordinates_reported(self):
        table = Table.from_dict(
            {
                "latitude": ("numeric", [30.2, None]),
                "longitude": ("numeric", [-97.7, -97.7]),
            }
        )
        pois = PoiSet((("a", GeoPoint(30.26, -97.75)),))
        out, bad = poi_distance_features(table, pois)
        assert bad == [1]
        assert out.cells("dist_a_km")[1] is None

    def test_poi_names_unique(self):
        with pytest.raises(ValueError):
            PoiSet((("a", GeoPoint(0, 0)), ("a", GeoPoint(1, 1))))

    def test_load_pois_roundtrip(self, tmp_path):
        path = tmp_path / "pois.csv"
        path.write_text("name,lat,lon\nx,30.5,-97.5\n", encoding="utf-8")
        pois = load_pois(path)
        assert pois.pois == (("x", GeoPoint(30.5, -97.5)),)

    @pytest.mark.parametrize("row, message", [
        ("x,30.5", r"line 3, column 'lon': the row has 2 cells, the header 3"),
        ("x,30.5,x", r"line 3, column 'lon': not a number: 'x'"),
        ("x,95,-97.5", r"line 3, column 'lat': 95.0 is out of range \[-90, 90\]"),
    ], ids=["short", "not_a_number", "latitude_out_of_range"])
    def test_load_pois_bad_row_named(self, tmp_path, row, message):
        path = tmp_path / "pois.csv"
        path.write_text(f"name,lat,lon\ny,30.2,-97.7\n{row}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"pois\.csv: " + message):
            load_pois(path)


class TestAmenities:
    def _table(self, cells):
        return Table.from_dict({"amenities": ("text", cells)})

    def test_parse_json_style(self):
        assert parse_amenities('["Wifi", "TV"]') == ["Wifi", "TV"]

    def test_parse_semicolon(self):
        assert parse_amenities("wifi;tv") == ["wifi", "tv"]

    def test_top_1(self):
        t = self._table(["wifi;tv", "wifi"])
        assert top_k_amenities(t, 1) == ["wifi"]

    def test_k_exceeding_distinct_returns_all_sorted(self):
        t = self._table(["wifi;tv", "wifi"])
        assert top_k_amenities(t, 10) == ["wifi", "tv"]

    def test_alphabetical_tie_break(self):
        t = self._table(["oven;tv"])
        assert top_k_amenities(t, 2) == ["oven", "tv"]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_amenities(self._table(["x"]), 0)

    def test_binarize_with_count(self):
        t = self._table(["wifi;tv", ""])
        out = binarize_amenities(t, ["wifi", "pool"])
        assert out.cells("wifi") == [1, 0]
        assert out.cells("pool") == [0, 0]
        assert out.cells("amenity_count") == [2, 0]

    def test_every_listing_every_amenity(self):
        t = self._table(["wifi;tv", "tv;wifi"])
        out = binarize_amenities(t, ["wifi", "tv"])
        assert out.cells("wifi") == [1, 1]
        assert out.cells("tv") == [1, 1]

    def test_empty_amenity_list_rejected(self):
        with pytest.raises(ValueError):
            binarize_amenities(self._table(["x"]), [])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["wifi", "tv", "pool", "gym"]), max_size=4), min_size=1, max_size=10))
    def test_binary_values_and_count_match_parse(self, listings):
        cells = [";".join(a) for a in listings]
        t = self._table(cells)
        out = binarize_amenities(t, ["wifi", "tv"])
        for i, raw in enumerate(cells):
            parsed = parse_amenities(raw)
            assert out.cells("amenity_count")[i] == len(parsed)
            assert out.cells("wifi")[i] == (1 if "wifi" in parsed else 0)
            assert out.cells("wifi")[i] in (0, 1)


def _zeller_day_of_week(d: dt.date) -> int:
    """Independent day-of-week oracle (Zeller's congruence), 0=Monday."""
    q, m, year = d.day, d.month, d.year
    if m < 3:
        m += 12
        year -= 1
    k = year % 100
    j = year // 100
    h = (q + (13 * (m + 1)) // 5 + k + k // 4 + j // 4 + 5 * j) % 7
    # h: 0=Saturday ... 6=Friday -> convert to 0=Monday
    return (h + 5) % 7


class TestExpandDate:
    def _table(self, dates):
        return Table.from_dict({"date": ("date", dates)})

    def test_paper_table_row(self):
        out = expand_date(self._table([dt.date(2022, 6, 9)]))
        assert out.cells("month") == [6]
        assert out.cells("year") == [2022]
        assert out.cells("day_of_week") == [3]  # Thursday

    def test_leap_day(self):
        out = expand_date(self._table([dt.date(2024, 2, 29)]))
        assert out.cells("month") == [2]
        assert out.cells("year") == [2024]

    def test_missing_date_missing_expansions(self):
        out = expand_date(self._table([None]))
        assert out.cells("year") == [None]
        assert out.cells("month") == [None]
        assert out.cells("day_of_week") == [None]

    def test_needs_date_column(self):
        t = Table.from_dict({"date": ("text", ["2022-06-09"])})
        with pytest.raises(SchemaError):
            expand_date(t)

    @settings(max_examples=1000, deadline=None)
    @given(st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2100, 12, 31)))
    def test_day_of_week_matches_zeller(self, d):
        out = expand_date(self._table([d]))
        assert out.cells("day_of_week")[0] == _zeller_day_of_week(d)


class TestOneHot:
    def test_three_categories_partition(self):
        t = Table.from_dict({"room_type": ("text", ["A", "B", "C", "A"])})
        out = one_hot(t, "room_type")
        assert "room_type" not in out.names
        for i in range(4):
            assert sum(out.cells(f"room_type_{c}")[i] for c in "ABC") == 1

    def test_single_category_all_ones(self):
        t = Table.from_dict({"x": ("text", ["only", "only"])})
        out = one_hot(t, "x")
        assert out.cells("x_only") == [1, 1]

    def test_table5_style_names(self):
        t = Table.from_dict(
            {"room_type": ("text", ["Shared room", "Private room"])}
        )
        out = one_hot(t, "room_type")
        assert "room_type_Shared room" in out.names
        assert "room_type_Private room" in out.names

    def test_missing_cell_all_zeros(self):
        t = Table.from_dict({"x": ("text", ["a", None])})
        out = one_hot(t, "x")
        assert out.cells("x_a") == [1, 0]


def _matrix():
    x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    return FeatureMatrix(x, ("a", "const"), np.array([1.0, 2.0, 3.0]))


class TestStandardize:
    def test_zero_mean_unit_std(self):
        m = standardize(_matrix())
        assert abs(m.x[:, 0].mean()) < 1e-9
        assert m.x[:, 0].std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_column_zeroed(self):
        m = standardize(_matrix())
        assert np.all(m.x[:, 1] == 0.0)

    @pytest.mark.parametrize("value", [0.1, 0.7])
    def test_constant_column_with_inexact_mean_zeroed(self, value):
        # the mean of seven copies of 0.1 is not 0.1, so its std is not 0
        x = np.column_stack([np.full(7, value), np.arange(7.0)])
        m = standardize(FeatureMatrix(x, ("const", "a"), np.arange(7.0)))
        assert np.array_equal(m.x[:, 0], np.zeros(7))


class TestAssembleMatrix:
    def test_shapes_and_order(self):
        t = Table.from_dict(
            {
                "a": ("numeric", [1.0, 2.0, 3.0]),
                "b": ("integer", [1, 0, 1]),
                "y": ("numeric", [0.5, 0.6, 0.7]),
            }
        )
        m = assemble_matrix(t, "y", ["b", "a"])
        assert m.x.shape == (3, 2)
        assert m.feature_names == ("b", "a")
        assert np.all(m.x[:, 0] == [1, 0, 1])

    def test_missing_target_cell_named(self):
        t = Table.from_dict({"a": ("numeric", [1.0, 2.0]), "y": ("numeric", [1.0, None])})
        with pytest.raises(AssemblyError, match="y"):
            assemble_matrix(t, "y", ["a"])

    def test_missing_feature_cell_named(self):
        t = Table.from_dict({"a": ("numeric", [None, 2.0]), "y": ("numeric", [1.0, 2.0])})
        with pytest.raises(AssemblyError, match="a \\(rows 0"):
            assemble_matrix(t, "y", ["a"])

    def test_text_column_rejected(self):
        t = Table.from_dict({"a": ("text", ["x"]), "y": ("numeric", [1.0])})
        with pytest.raises(AssemblyError):
            assemble_matrix(t, "y", ["a"])

    @pytest.mark.parametrize("n", range(330, 340))
    def test_fits_bit_identically_to_its_csv_round_trip(self, tmp_path, n):
        # run hands the assembled matrix to the fits; the subcommands read it
        # back from features.csv. Both must give the same model bytes. Whether
        # BLAS rounds a.T @ y differently for a strided and a contiguous y
        # depends on n, hence several sizes.
        rng = np.random.default_rng(n)
        data = {f"f{j}": ("numeric", list(rng.normal(0, 10.0 ** (j % 4), n))) for j in range(9)}
        data["y"] = ("numeric", list(rng.normal(150.0, 40.0, n)))
        m = assemble_matrix(Table.from_dict(data), "y", [f"f{j}" for j in range(9)])
        matrix_to_csv(m, tmp_path / "m.csv")
        back = matrix_from_csv(tmp_path / "m.csv")
        assembled, read_back = fit_ols(m), fit_ols(back)
        assert assembled.intercept == read_back.intercept
        assert assembled.coefficients.tobytes() == read_back.coefficients.tobytes()


def test_matrix_csv_roundtrip(tmp_path):
    m = FeatureMatrix(
        np.array([[1.5, -2.25], [0.125, 3.75]]),
        ("alpha", "beta"),
        np.array([10.0, 20.0]),
    )
    path = tmp_path / "m.csv"
    matrix_to_csv(m, path)
    back = matrix_from_csv(path)
    assert back.feature_names == m.feature_names
    assert np.array_equal(back.x, m.x)
    assert np.array_equal(back.y, m.y)


def _per_cell_matrix_to_csv(m, path):
    """Slow oracle: the writer matrix_to_csv replaced, one repr per cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(m.feature_names) + [TARGET_HEADER])
        for i in range(m.n_rows):
            writer.writerow([repr(float(v)) for v in m.x[i]] + [repr(float(m.y[i]))])


# signed zeros, subnormals, the extremes of the exponent range and values
# whose shortest repr switches between fixed and exponent notation
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e16, 9999999999999998.0,
                1e-5, 0.0001, 0.1, 1 / 3, -2.5, 1e22, 123456789.0]
_cells = st.one_of(st.sampled_from(_EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


class TestMatrixToCsvMatchesPerCellWriter:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 4), st.integers(1, 5), st.data())
    def test_same_bytes(self, tmp_path_factory, n_rows, n_cols, block_rows, data):
        # a small pool makes repeated values, within and across row blocks
        pool = data.draw(st.lists(_cells, min_size=1, max_size=6))
        cells = data.draw(st.lists(st.sampled_from(pool) | _cells,
                                   min_size=n_rows * (n_cols + 1), max_size=n_rows * (n_cols + 1)))
        grid = np.array(cells, dtype=np.float64).reshape(n_rows, n_cols + 1)
        m = FeatureMatrix(grid[:, :-1], tuple(f"f{j}" for j in range(n_cols)), grid[:, -1])
        out = tmp_path_factory.mktemp("csv")
        _per_cell_matrix_to_csv(m, out / "cell.csv")
        with mock.patch.object(tabular, "_CSV_BLOCK_ROWS", block_rows):
            matrix_to_csv(m, out / "block.csv")
        assert (out / "block.csv").read_bytes() == (out / "cell.csv").read_bytes()

    def test_same_bytes_across_full_blocks(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * tabular._CSV_BLOCK_ROWS + 7
        x = np.column_stack([rng.integers(0, 3, n).astype(float), rng.normal(size=n),
                             np.where(rng.random(n) < 0.5, 0.0, -0.0), np.full(n, 5e-324)])
        m = FeatureMatrix(x, ("a", "b", "c", "d"), rng.normal(100.0, 30.0, n))
        _per_cell_matrix_to_csv(m, tmp_path / "cell.csv")
        matrix_to_csv(m, tmp_path / "block.csv")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()

    def test_signed_zeros_stay_distinct(self, tmp_path):
        m = FeatureMatrix(np.array([[0.0], [-0.0], [0.0]]), ("a",), np.array([-0.0, 0.0, -0.0]))
        matrix_to_csv(m, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == b"a,target\r\n0.0,-0.0\r\n-0.0,0.0\r\n0.0,-0.0\r\n"


# join_matrix against the joined table it no longer builds


def feature_columns(table, target):
    """The columns of table that can be features: numeric, integer or
    boolean, neither the target nor an id, with no missing cell and at least
    two distinct values (a constant column collides with the intercept)."""
    return [
        name
        for name, col in zip(table.names, table.cols)
        if name != target and name not in ID_COLUMNS
        and col.kind in ("numeric", "integer", "boolean")
        and col.n_missing == 0
        and len(set(col.cells())) > 1
    ]


def _joined_matrix(left, right, left_on, right_on, target):
    joined = inner_join(left, right, left_on, right_on)
    return assemble_matrix(joined, target, feature_columns(joined, target))


def _outcome(build, *args):
    try:
        return build(*args)
    except (AssemblyError, SchemaError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(*args):
    got, want = _outcome(join_matrix, *args), _outcome(_joined_matrix, *args)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.feature_names == want.feature_names
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
    # x and y are views of one C-ordered block, the target its last column
    for m in (got, want):
        assert m.x.base is m.y.base and m.x.base.flags.c_contiguous
        assert m.x.base.shape == (m.n_rows, m.n_features + 1)


def _calendar(listing_id, price, **columns):
    return Table.from_dict({"listing_id": ("integer", listing_id), "price": ("numeric", price),
                            **columns})


class TestJoinMatrix:
    def test_missing_only_off_the_join_constant_after_it_and_a_collision(self):
        calendar = _calendar([1, 1, 2, 2, 9], [100.0, 110.0, 90.0, 95.0, 80.0],
                             day=("integer", [0, 1, 0, 1, 2]), x=("numeric", [1.0, 2.0, 3.0, 4.0, 5.0]))
        listings = Table.from_dict({
            "id": ("integer", [1, 2, 3]),
            # missing only on listing 3, which has no calendar rows
            "rating": ("numeric", [4.5, 4.0, None]),
            # constant over the joined rows, not over the listings
            "beds": ("integer", [2, 2, 5]),
            "x": ("numeric", [7.0, 8.0, 9.0]),
            "listing_id": ("integer", [10, 20, 30]),
            "host_id": ("integer", [5, 6, 7]),
            "room": ("text", ["a", "b", "c"]),
        })
        m = join_matrix(calendar, listings, "listing_id", "id", "price")
        assert m.feature_names == ("day", "x", "rating", "x_r", "listing_id_r")
        assert m.y.tolist() == [100.0, 110.0, 90.0, 95.0]
        assert m.x[:, 2].tolist() == [4.5, 4.5, 4.0, 4.0]
        _assert_same_outcome(calendar, listings, "listing_id", "id", "price")

    def test_errors_match(self):
        calendar = _calendar([1, 2, 2, 1, 2, 2, 2], [1.0, None, 2.0, None, None, None, None],
                             note=("text", ["a"] * 7))
        listings = Table.from_dict({"id": ("integer", [2, 1]), "beds": ("integer", [1, 2])})
        for target in ("price", "note", "nope"):
            with pytest.raises((AssemblyError, SchemaError)):
                join_matrix(calendar, listings, "listing_id", "id", target)
            _assert_same_outcome(calendar, listings, "listing_id", "id", target)

    def test_empty_join(self):
        calendar = _calendar([1, 2], [1.0, 2.0])
        listings = Table.from_dict({"id": ("integer", [3]), "beds": ("integer", [1])})
        m = join_matrix(calendar, listings, "listing_id", "id", "price")
        assert m.x.shape == (0, 0) and m.y.shape == (0,)
        _assert_same_outcome(calendar, listings, "listing_id", "id", "price")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_joined_table(self, data):
        def column(kind, values, n):
            return kind, data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

        keys = [None, 1, 2, 3]
        n, k = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 4))
        prices = [100.0, 0.5, -0.0, None] if data.draw(st.booleans()) else [100.0, 0.5, 2.0 ** 60]
        calendar = _calendar(column("integer", keys, n)[1], column("numeric", prices, n)[1],
                             day=column("integer", [0, 1, 2 ** 60 + 1, 2 ** 60], n),
                             x=column("numeric", [1.0, -0.0, 0.0, None], n),
                             flag=column("boolean", [True, False, None], n),
                             x_r=column("numeric", [1.5, 2.5], n),
                             note=column("text", ["a", None], n))
        listings = Table.from_dict({
            "id": column("integer", keys, k),
            "x": column("numeric", [3.0, 1.0, 0.0, -0.0, None], k),
            "listing_id": column("integer", [7, 8], k),
            "beds": column("integer", [1, 2, True], k),
            "host_id": column("integer", [4, 5], k),
            "rating": column("numeric", [4.0, 4.5, None], k),
            "room": column("text", ["a", "b", None], k),
        })
        _assert_same_outcome(calendar, listings, "listing_id", "id", "price")


def test_stage_featurize_matrix_matches_the_joined_table(tmp_path, monkeypatch):
    import rentlab.cli as cli
    from rentlab.synthgen import GenConfig, generate

    listings, calendar, _ = generate(GenConfig(n_listings=12, date_range=(dt.date(2023, 1, 1),
                                                                          dt.date(2023, 1, 20)),
                                               seed=5, missing_fraction=0.1))
    calendar = calendar.with_column("price", tabular.clean_currency(calendar.column("price")))
    calendar = calendar.filter([v is not None for v in calendar.cells("price")])
    # a listing without calendar rows, missing a rating that every other listing has
    listings = listings.with_column("review_scores_rating", Column.of(
        "numeric", (None,) + tuple(v or 4.0 for v in listings.cells("review_scores_rating")[1:])))
    calendar = calendar.filter([v != listings.cells("id")[0] for v in calendar.cells("listing_id")])
    calls = []
    monkeypatch.setattr(cli, "join_matrix", lambda *args: calls.append(args) or join_matrix(*args))
    matrix = cli.stage_featurize(listings, calendar, str(tmp_path / "features.csv"))
    (args,) = calls
    assert "review_scores_rating" in matrix.feature_names
    want = _joined_matrix(*args)
    assert matrix.feature_names == want.feature_names
    assert matrix.x.tobytes() == want.x.tobytes() and matrix.y.tobytes() == want.y.tobytes()
