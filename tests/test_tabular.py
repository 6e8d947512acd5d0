import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentlab.errors import SchemaError
from rentlab.tabular import (
    CALENDAR_SCHEMA,
    LISTINGS_SCHEMA,
    REVIEWS_SCHEMA,
    Column,
    Schema,
    Table,
    clean_currency,
    drop_duplicates,
    inner_join,
    read_csv,
    schema_of,
    write_csv,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCsv:
    def test_calendar_row(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            "listing_id,date,price,month\n5456,2022-06-09,95,6\n",
        )
        table, report = read_csv(path, CALENDAR_SCHEMA)
        assert table.n_rows == 1
        row = table.row(0)
        assert row["listing_id"] == 5456
        assert row["date"] == dt.date(2022, 6, 9)
        assert row["price"] == 95.0
        assert row["month"] == 6
        assert report.total_coerced == 0

    def test_header_only_file(self, tmp_path):
        path = _write(tmp_path, "cal.csv", "listing_id,date,price\n")
        table, _ = read_csv(path, CALENDAR_SCHEMA)
        assert table.n_rows == 0

    def test_unparseable_cell_counted(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            "listing_id,date,price\n1,2022-06-09,abc\n",
        )
        table, report = read_csv(path, CALENDAR_SCHEMA)
        assert table.values("price") == (None,)
        assert report.coerced_missing == {"price": 1}
        assert report.total_coerced == 1

    def test_non_finite_cells_counted(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            "listing_id,date,price\n1,2022-06-09,nan\n1,2022-06-10,inf\n"
            "1,2022-06-11,$1e309\n1,2022-06-12,-Infinity\n1,2022-06-13,95\n",
        )
        table, report = read_csv(path, CALENDAR_SCHEMA)
        assert table.values("price") == (None, None, None, None, 95.0)
        assert report.coerced_missing == {"price": 4}
        numeric = Schema("t", {"x": "numeric"}, frozenset())
        table, report = read_csv(_write(tmp_path, "x.csv", "x\nNaN\n1e999\n2.5\n"), numeric)
        assert table.values("x") == (None, None, 2.5)
        assert report.coerced_missing == {"x": 2}

    def test_currency_formatted_price(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            'listing_id,date,price\n1,2022-06-09,"$1,250.00"\n',
        )
        table, _ = read_csv(path, CALENDAR_SCHEMA)
        assert table.values("price") == (1250.0,)

    def test_missing_required_column(self, tmp_path):
        path = _write(tmp_path, "cal.csv", "listing_id,date\n1,2022-06-09\n")
        with pytest.raises(SchemaError, match="price"):
            read_csv(path, CALENDAR_SCHEMA)

    def test_unknown_columns_kept_as_text(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            "listing_id,date,price,mystery\n1,2022-06-09,10,zz\n",
        )
        table, report = read_csv(path, CALENDAR_SCHEMA)
        assert table.values("mystery") == ("zz",)
        assert report.untyped_columns == ("mystery",)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "absent.csv", CALENDAR_SCHEMA)

    def test_load_never_invents_values(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            "listing_id,date,price\n1,2022-06-09,10\n,not-a-date,\n",
        )
        table, _ = read_csv(path, CALENDAR_SCHEMA)
        cells_in = 6
        non_missing_out = sum(
            1 for col in table.cols for v in col.values if v is not None
        )
        assert non_missing_out <= cells_in


class TestCleanCurrency:
    def test_currency_string(self):
        col = Column("text", ("$1,250.00",))
        assert clean_currency(col).values == (1250.0,)

    def test_bare_number(self):
        assert clean_currency(Column("text", ("95",))).values == (95.0,)

    def test_empty_and_garbage_degrade_to_missing(self):
        col = Column("text", ("", "abc", None))
        assert clean_currency(col).values == (None, None, None)

    def test_non_finite_text_degrades_to_missing(self):
        col = Column("text", ("nan", "inf", "-Infinity", "$1e309", "$5"))
        assert clean_currency(col).values == (None, None, None, None, 5.0)

    def test_requires_text_column(self):
        with pytest.raises(SchemaError):
            clean_currency(Column("numeric", (1.0,)))


class TestDropDuplicates:
    def _table(self, ids, dates, prices):
        return Table.from_dict(
            {
                "listing_id": ("integer", ids),
                "date": ("text", dates),
                "price": ("numeric", prices),
            }
        )

    def test_identical_rows_collapse(self):
        t = self._table([1, 1], ["a", "a"], [5.0, 5.0])
        out = drop_duplicates(t, ["listing_id", "date"])
        assert out.n_rows == 1

    def test_no_duplicates_identity(self):
        t = self._table([1, 2], ["a", "b"], [5.0, 6.0])
        out = drop_duplicates(t, ["listing_id", "date"])
        assert out == t

    def test_first_of_pair_retained(self):
        # 3 rows, rows 0 and 2 share keys; expect rows 0 and 1 to survive
        t = self._table([1, 2, 1], ["a", "b", "a"], [5.0, 6.0, 7.0])
        out = drop_duplicates(t, ["listing_id", "date"])
        assert out.n_rows == 2
        assert out.values("price") == (5.0, 6.0)

    def test_unknown_key_column(self):
        t = self._table([1], ["a"], [5.0])
        with pytest.raises(SchemaError):
            drop_duplicates(t, ["nope"])

    def test_idempotent(self):
        t = self._table([1, 1, 2], ["a", "a", "b"], [5.0, 7.0, 6.0])
        once = drop_duplicates(t, ["listing_id", "date"])
        twice = drop_duplicates(once, ["listing_id", "date"])
        assert once == twice


class TestTableInvariants:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Table(("a", "a"), (Column("numeric", (1.0,)), Column("numeric", (2.0,))))

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table(("a", "b"), (Column("numeric", (1.0,)), Column("numeric", (1.0, 2.0))))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            Column("complex", (1.0,))


@st.composite
def small_tables(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    floats = st.one_of(
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    # NUL cannot be represented in a CSV field; everything else round-trips
    texts = st.one_of(
        st.none(),
        st.text(min_size=0, max_size=6).filter(lambda s: "\x00" not in s),
    )
    ints = st.one_of(st.none(), st.integers(min_value=-10**6, max_value=10**6))
    bools = st.one_of(st.none(), st.booleans())
    dates = st.one_of(
        st.none(),
        st.dates(min_value=dt.date(1990, 1, 1), max_value=dt.date(2030, 12, 31)),
    )
    return Table.from_dict(
        {
            "f": ("numeric", draw(st.lists(floats, min_size=n, max_size=n))),
            "t": ("text", draw(st.lists(texts, min_size=n, max_size=n))),
            "i": ("integer", draw(st.lists(ints, min_size=n, max_size=n))),
            "b": ("boolean", draw(st.lists(bools, min_size=n, max_size=n))),
            "d": ("date", draw(st.lists(dates, min_size=n, max_size=n))),
        }
    )


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_csv_round_trip(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    write_csv(table, path)
    back, report = read_csv(path, schema_of(table))
    assert report.total_coerced == 0
    for col_in, col_out in zip(table.cols, back.cols):
        assert col_in.kind == col_out.kind
        for a, b in zip(col_in.values, col_out.values):
            if isinstance(a, float) and a is not None and b is not None:
                assert b == pytest.approx(a, abs=1e-12)
            elif isinstance(a, str) and a == "":
                assert b is None  # empty text is indistinguishable from missing
            else:
                assert a == b


def test_inner_join_basic():
    cal = Table.from_dict(
        {"listing_id": ("integer", [1, 2, 1, 3]), "price": ("numeric", [10.0, 20.0, 11.0, 30.0])}
    )
    listings = Table.from_dict(
        {"id": ("integer", [1, 2]), "bedrooms": ("integer", [2, 3])}
    )
    joined = inner_join(cal, listings, "listing_id", "id")
    assert joined.n_rows == 3  # listing 3 has no match
    assert joined.values("bedrooms") == (2, 3, 2)


def test_inner_join_collision_suffix():
    left = Table.from_dict({"k": ("integer", [1]), "x": ("numeric", [1.0])})
    right = Table.from_dict({"k": ("integer", [1]), "x": ("numeric", [2.0])})
    joined = inner_join(left, right, "k", "k")
    assert joined.values("x") == (1.0,)
    assert joined.values("x_r") == (2.0,)


def test_builtin_schemas_expose_dataset_columns():
    assert "amenities" in LISTINGS_SCHEMA.fields
    assert LISTINGS_SCHEMA.fields["price"] == "currency"
    assert CALENDAR_SCHEMA.required == {"listing_id", "date", "price"}
    assert "comments" in REVIEWS_SCHEMA.required


def test_schema_rejects_unknown_parse_kind():
    with pytest.raises(SchemaError):
        Schema("bad", {"a": "quaternion"}, frozenset())


def test_full_width_listings_dump_loads_typed(tmp_path):
    # a row shaped like the public 74-column dump parses without coercion
    header = list(LISTINGS_SCHEMA.fields)
    row = []
    for name in header:
        kind = LISTINGS_SCHEMA.fields[name]
        row.append(
            {
                "integer": "7",
                "numeric": "4.5",
                "currency": "$1,234.00",
                "boolean": "t",
                "date": "2023-03-16",
                "text": "sample",
            }[kind]
        )
    path = tmp_path / "wide.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        import csv as _csv

        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerow(row)
    table, report = read_csv(path, LISTINGS_SCHEMA)
    assert table.n_cols == len(header) >= 70
    assert report.total_coerced == 0
    assert table.values("price") == (1234.0,)
    assert table.values("host_is_superhost") == (True,)


def test_generated_csvs_load_clean_through_builtin_schemas(tmp_path):
    import datetime as _dt

    from rentlab.synthgen import GenConfig, generate

    cfg = GenConfig(
        n_listings=8,
        date_range=(_dt.date(2023, 1, 1), _dt.date(2023, 1, 5)),
        seed=2,
    )
    listings, calendar, reviews = generate(cfg)
    for table, schema, name in (
        (listings, LISTINGS_SCHEMA, "l.csv"),
        (calendar, CALENDAR_SCHEMA, "c.csv"),
        (reviews, REVIEWS_SCHEMA, "r.csv"),
    ):
        path = tmp_path / name
        write_csv(table, path)
        loaded, report = read_csv(path, schema)
        assert loaded.n_rows == table.n_rows
        assert report.total_coerced == 0
