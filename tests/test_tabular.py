import csv
import datetime as dt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentlab import tabular
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
    group_means,
    inner_join,
    read_csv,
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
        row = table.rows()[0]
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
        assert table.cells("price") == [None]
        assert report.coerced_missing == {"price": 1}
        assert report.total_coerced == 1

    def test_non_finite_cells_counted(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            "listing_id,date,price\n1,2022-06-09,nan\n1,2022-06-10,inf\n"
            "1,2022-06-11,$1e309\n1,2022-06-12,-Infinity\n1,2022-06-13,95\n",
        )
        table, report = read_csv(path, CALENDAR_SCHEMA)
        assert table.cells("price") == [None, None, None, None, 95.0]
        assert report.coerced_missing == {"price": 4}
        numeric = Schema("t", {"x": "numeric"}, frozenset())
        table, report = read_csv(_write(tmp_path, "x.csv", "x\nNaN\n1e999\n2.5\n"), numeric)
        assert table.cells("x") == [None, None, 2.5]
        assert report.coerced_missing == {"x": 2}

    def test_integer_outside_int64_counted(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            "listing_id,date,price\n99999999999999999999,2022-06-09,1\n"
            "-9223372036854775808,2022-06-10,2\n9223372036854775808,2022-06-11,3\n",
        )
        table, report = read_csv(path, CALENDAR_SCHEMA)
        assert table.cells("listing_id") == [None, -2**63, None]
        assert report.coerced_missing == {"listing_id": 2}

    def test_currency_formatted_price(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            'listing_id,date,price\n1,2022-06-09,"$1,250.00"\n',
        )
        table, _ = read_csv(path, CALENDAR_SCHEMA)
        assert table.cells("price") == [1250.0]

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
        assert table.cells("mystery") == ["zz"]
        assert report.untyped_columns == ("mystery",)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "absent.csv", CALENDAR_SCHEMA)

    @pytest.mark.parametrize("row, cells", [("2,2023-01-02", 2), ("2,2023-01-02,20,extra", 4)],
                             ids=["short", "long"])
    def test_ragged_row_rejected_by_line(self, tmp_path, row, cells):
        path = _write(tmp_path, "cal.csv", f"listing_id,date,price\n1,2023-01-01,10\n{row}\n")
        with pytest.raises(SchemaError, match=rf"cal\.csv: line 3: the row has {cells} cells, "
                                              r"the header 3"):
            read_csv(path, CALENDAR_SCHEMA)

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "cal.csv",
                      "listing_id,date,price\n1,2023-01-01,10\n\n2,2023-01-02,20\n\n")
        table, report = read_csv(path, CALENDAR_SCHEMA)
        assert table.cells("listing_id") == [1, 2]
        assert table.cells("price") == [10.0, 20.0]
        assert report.n_rows == 2 and report.coerced_missing == {}

    def test_load_never_invents_values(self, tmp_path):
        path = _write(
            tmp_path, "cal.csv",
            "listing_id,date,price\n1,2022-06-09,10\n,not-a-date,\n",
        )
        table, _ = read_csv(path, CALENDAR_SCHEMA)
        cells_in = 6
        non_missing_out = sum(
            1 for col in table.cols for v in col.cells() if v is not None
        )
        assert non_missing_out <= cells_in


class TestCleanCurrency:
    def test_currency_string(self):
        col = Column.of("text", ("$1,250.00",))
        assert clean_currency(col).cells() == [1250.0]

    def test_bare_number(self):
        assert clean_currency(Column.of("text", ("95",))).cells() == [95.0]

    def test_empty_and_garbage_degrade_to_missing(self):
        col = Column.of("text", ("", "abc", None))
        assert clean_currency(col).cells() == [None, None, None]

    def test_non_finite_text_degrades_to_missing(self):
        col = Column.of("text", ("nan", "inf", "-Infinity", "$1e309", "$5"))
        assert clean_currency(col).cells() == [None, None, None, None, 5.0]

    def test_requires_text_column(self):
        with pytest.raises(SchemaError):
            clean_currency(Column.of("numeric", (1.0,)))


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
        assert out.cells("price") == [5.0, 6.0]

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
            Table(("a", "a"), (Column.of("numeric", (1.0,)), Column.of("numeric", (2.0,))))

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table(("a", "b"), (Column.of("numeric", (1.0,)), Column.of("numeric", (1.0, 2.0))))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            Column.of("complex", (1.0,))


def _row_order_means(keys, values):
    """Reference: the hand-written per-key loop every caller used to carry."""
    sums, counts = {}, {}
    total, n = 0.0, 0
    for key, v in zip(keys, values):
        if v is None:
            continue
        total += v
        n += 1
        if key is not None:
            sums[key] = sums.get(key, 0.0) + v
            counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}, (total / n if n else None)


def _bits(means, overall):
    return [(k, v.hex()) for k, v in means.items()], None if overall is None else overall.hex()


class TestGroupMeans:
    def test_row_order_sum_on_cancelling_values(self):
        # per key, 1e16 + 1.0 rounds back to 1e16, so the row-order sum is 3.0
        # (math.fsum would give 4.0); missing keys and values are skipped
        keys = ["a", "b", None, "a", "b", "a", None, "a", "b", "c", "b", "b"]
        values = [1e16, 1e16, 7.0, 1.0, 1.0, -1e16, None, 3.0, -1e16, None, 3.0, None]
        means, overall = group_means(keys, Column.of("numeric", values))
        assert means == {"a": 0.75, "b": 0.75}
        assert list(means) == ["a", "b"]  # first-seen order
        assert _bits(means, overall) == _bits(*_row_order_means(keys, values))

    def test_keyless_rows_count_only_overall(self):
        assert group_means([None, 1], Column.of("numeric", [2.0, 4.0])) == ({1: 4.0}, 3.0)

    def test_no_value_gives_no_means(self):
        assert group_means([1, None], Column.of("numeric", [None, None])) == ({}, None)
        assert group_means([], Column.of("numeric", [])) == ({}, None)

    def test_integer_values_average_as_floats(self):
        means, overall = group_means([1, 1, 2], Column.of("integer", [1, 2, 4]))
        assert means == {1: 1.5, 2: 4.0} and overall == 7 / 3

    def test_tuple_keys(self):
        means, _ = group_means([(1, 0), (1, 0), (1, 6)], Column.of("numeric", [2.0, 4.0, 5.0]))
        assert means == {(1, 0): 3.0, (1, 6): 5.0}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([None, 0, 1, 2]),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, min_value=-1e17,
                                       max_value=1e17)),
    ), max_size=40))
    def test_matches_the_row_order_loop_bit_for_bit(self, rows):
        keys = [k for k, _ in rows]
        values = [v for _, v in rows]
        assert _bits(*group_means(keys, Column.of("numeric", values))) == _bits(*_row_order_means(keys, values))


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
    schema = Schema("derived", {n: c.kind for n, c in zip(table.names, table.cols)}, frozenset())
    back, report = read_csv(path, schema)
    assert report.total_coerced == 0
    for col_in, col_out in zip(table.cols, back.cols):
        assert col_in.kind == col_out.kind
        for a, b in zip(col_in.cells(), col_out.cells()):
            if isinstance(a, float) and a is not None and b is not None:
                assert b == pytest.approx(a, abs=1e-12)
            elif isinstance(a, str) and a == "":
                assert b is None  # empty text is indistinguishable from missing
            else:
                assert a == b


def _kind_cell(kind, value):
    """One cell as its column's kind formats it: a missing cell (or a NaN
    float) as an empty field, a float as its repr."""
    if value is None:
        return ""
    if kind == "numeric":
        return repr(float(value)) if value == value else ""
    if kind == "boolean":
        return "true" if value else "false"
    if kind == "date":
        return value.isoformat()
    return str(value)


def _reference_write_columns(path, names, columns):
    """write_columns as one csv.writer row per row, each cell formatted by
    its column's kind (a float64 array's is numeric)."""
    kinds = [c.kind if isinstance(c, Column) else "numeric" for c in columns]
    values = [c.cells() if isinstance(c, Column) else c.tolist() for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(len(values[0]) if columns else 0):
            writer.writerow([_kind_cell(kind, v[i]) for kind, v in zip(kinds, values)])


_CELL_VALUES = {
    "numeric": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]),
    ),
    "text": st.one_of(
        st.text(alphabet=st.sampled_from('ab ,"\r\n;\'\t'), max_size=5),
        st.text(max_size=5).filter(lambda t: "\x00" not in t),
    ),
    "integer": st.integers(min_value=-10**6, max_value=10**6),
    "boolean": st.booleans(),
    "date": st.dates(min_value=dt.date(1990, 1, 1), max_value=dt.date(2030, 12, 31)),
}


@st.composite
def csv_tables(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    columns = {}
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(sorted(_CELL_VALUES)))
        cells = st.one_of(st.none(), _CELL_VALUES[kind])
        # a few distinct values each, so that blocks repeat them
        cells = st.sampled_from(draw(st.lists(cells, min_size=1, max_size=4)))
        columns[f"c{i}"] = (kind, draw(st.lists(cells, min_size=n, max_size=n)))
    return Table.from_dict(columns)


@settings(max_examples=150, deadline=None)
@given(csv_tables(), st.sampled_from([1, 3, 512]))
def test_write_csv_matches_per_cell_writer(tmp_path_factory, table, block_rows):
    folder = tmp_path_factory.mktemp("csv")
    with mock.patch.object(tabular, "_CSV_BLOCK_ROWS", block_rows):
        write_csv(table, folder / "blocked.csv")
    _reference_write_columns(folder / "per_cell.csv", table.names, table.cols)
    assert (folder / "blocked.csv").read_bytes() == (folder / "per_cell.csv").read_bytes()


def test_inner_join_basic():
    cal = Table.from_dict(
        {"listing_id": ("integer", [1, 2, 1, 3]), "price": ("numeric", [10.0, 20.0, 11.0, 30.0])}
    )
    listings = Table.from_dict(
        {"id": ("integer", [1, 2]), "bedrooms": ("integer", [2, 3])}
    )
    joined = inner_join(cal, listings, "listing_id", "id")
    assert joined.n_rows == 3  # listing 3 has no match
    assert joined.cells("bedrooms") == [2, 3, 2]


def test_inner_join_collision_suffix():
    left = Table.from_dict({"k": ("integer", [1]), "x": ("numeric", [1.0])})
    right = Table.from_dict({"k": ("integer", [1]), "x": ("numeric", [2.0])})
    joined = inner_join(left, right, "k", "k")
    assert joined.cells("x") == [1.0]
    assert joined.cells("x_r") == [2.0]


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
    assert len(table.names) == len(header) >= 70
    assert report.total_coerced == 0
    assert table.cells("price") == [1234.0]
    assert table.cells("host_is_superhost") == [True]


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


# Column-at-a-time paths against the per-cell loops they replaced.

_ORACLE_CELLS = ["", " 7 ", "7", "-3", "nan", "-inf", "1e400", "$1,250.00", "1_000", "2.5",
                 "TRUE", "no", "t", "0", "2023-02-30", " 2023-01-05", "2023-01-05", "abc", " "]


def _reference_read_csv(path, schema):
    """read_csv as one _parse_cell per cell, row after row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    report = tabular.LoadReport(path=str(path), n_rows=len(rows))
    cols, untyped = [], []
    for j, name in enumerate(header):
        kind = schema.fields.get(name)
        if kind is None:
            kind = "text"
            untyped.append(name)
        parsed = [tabular._parse_cell(row[j], kind) for row in rows]
        coerced = sum(bad for _, bad in parsed)
        if coerced:
            report.coerced_missing[name] = coerced
        cols.append(Column.of(tabular._storage_kind(kind), [v for v, _ in parsed]))
    report.untyped_columns = tuple(untyped)
    return Table(tuple(header), tuple(cols)), report


def _typed(values):
    # the value, its type and its repr: 1 == 1.0 == True, 0.0 == -0.0
    return [(type(v), repr(v)) for v in values]


_PARSE_KINDS = ["integer", "numeric", "currency", "boolean", "date", "text", None]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.lists(st.sampled_from(_PARSE_KINDS), min_size=1, max_size=5), st.data())
def test_read_csv_matches_per_cell_parse(tmp_path_factory, n_rows, kinds, data):
    cells = st.sampled_from(_ORACLE_CELLS) | st.text(alphabet="0123456789.-$,e tTnaf", max_size=6)
    rows = [[data.draw(cells) for _ in kinds] for _ in range(n_rows)]
    path = tmp_path_factory.mktemp("read") / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(len(kinds))])
        # a row of empty cells only would be a blank line, which both skip
        writer.writerows(row for row in rows if any(row))
    schema = Schema("s", {f"c{j}": k for j, k in enumerate(kinds) if k}, frozenset())
    table, report = read_csv(path, schema)
    ref_table, ref_report = _reference_read_csv(path, schema)
    assert table.names == ref_table.names
    for col, ref in zip(table.cols, ref_table.cols):
        assert col.kind == ref.kind
        assert _typed(col.cells()) == _typed(ref.cells())
    assert report == ref_report


def test_read_csv_counts_each_coerced_cell(tmp_path):
    kinds = {"i": "integer", "n": "numeric", "c": "currency", "b": "boolean", "d": "date"}
    path = tmp_path / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(kinds))
        writer.writerows([cell] * len(kinds) for cell in _ORACLE_CELLS if cell)
    table, report = read_csv(path, Schema("s", kinds, frozenset()))
    ref_table, ref_report = _reference_read_csv(path, Schema("s", kinds, frozenset()))
    assert report == ref_report and report.coerced_missing["n"] == 12
    assert _typed(table.cells("c")) == _typed(ref_table.cells("c"))
    assert table.cells("i")[:2] == [7, 7] and table.cells("c")[6] == 1250.0
    assert table.cells("d")[-5:] == [None, dt.date(2023, 1, 5), dt.date(2023, 1, 5), None, None]


_WRITER_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1 / 3, 2.5, 123456789.0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.lists(st.sampled_from(["array", *sorted(_CELL_VALUES)]), min_size=1, max_size=4),
       st.sampled_from([1, 2, 512]), st.data())
def test_write_columns_matches_per_cell_writer(tmp_path_factory, n_rows, kinds, block_rows, data):
    # any NaN, of either sign or payload, is written as an empty field
    floats = st.sampled_from(_WRITER_FLOATS) | st.floats()
    cells = {**_CELL_VALUES, "numeric": floats, "text": st.sampled_from(["", "a,b", 'q"', "x"])}
    columns = [np.array(data.draw(st.lists(floats, min_size=n_rows, max_size=n_rows)))
               if kind == "array"
               else Column.of(kind, tuple(data.draw(st.lists(st.none() | cells[kind], min_size=n_rows,
                                                          max_size=n_rows))))
               for kind in kinds]
    names = [f"c{j}" for j in range(len(columns))]
    folder = tmp_path_factory.mktemp("cols")
    with mock.patch.object(tabular, "_CSV_BLOCK_ROWS", block_rows):
        tabular.write_columns(folder / "blocked.csv", names, columns)
    _reference_write_columns(folder / "cell.csv", names, columns)
    assert (folder / "blocked.csv").read_bytes() == (folder / "cell.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [1, tabular._CSV_BLOCK_ROWS + 1])
def test_write_columns_edge_floats_in_full_blocks(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    picks = np.array(_WRITER_FLOATS)[rng.integers(0, len(_WRITER_FLOATS), (n_rows, 3))]
    columns = [*picks.T, Column.of("numeric", tuple(rng.choice([None, 1.0, -0.0, 5e-324], n_rows).tolist())),
               picks[:, 0] * -1, Column.of("text", tuple(rng.choice([None, "", "x", "a,b"], n_rows).tolist()))]
    names = ["a", "b", "c", "n", "d", "t"]
    for subset in ([0, 1, 2], [0, 3, 4], [3, 4], [4], [3], [5, 3, 0], [5]):
        tabular.write_columns(tmp_path / "blocked.csv", [names[j] for j in subset], [columns[j] for j in subset])
        _reference_write_columns(tmp_path / "cell.csv", [names[j] for j in subset], [columns[j] for j in subset])
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


@pytest.mark.parametrize("block_rows", [1, 512])
def test_write_columns_quoted_and_empty_cells(tmp_path, block_rows):
    # a quoted cell is quoted once, and a one-column row's lone empty field is written ""
    texts = Column.of("text", ("a,b", 'q"', "x\r\ny", "", None, "plain", "a,b", ""))
    floats = Column.of("numeric", (None, 1.0, float("nan"), -0.0))
    tables = {"one": [texts], "two": [texts, Column.of("text", texts.values[::-1])],
              "mixed": [texts, np.arange(8.0)], "floats": [floats]}
    for name, columns in tables.items():
        names = [f"c{j}" for j in range(len(columns))]
        with mock.patch.object(tabular, "_CSV_BLOCK_ROWS", block_rows):
            tabular.write_columns(tmp_path / f"{name}.csv", names, columns)
        _reference_write_columns(tmp_path / "cell.csv", names, columns)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == b'c0\r\n"a,b"\r\n"q"""\r\n"x\r\ny"\r\n""\r\n""\r\nplain\r\n"a,b"\r\n""\r\n'
    assert (tmp_path / "floats.csv").read_bytes() == b'c0\r\n""\r\n1.0\r\n""\r\n-0.0\r\n'


def test_write_columns_names_a_numeric_column_holding_text():
    # a numeric Column cannot hold text, so the table fails where it is built
    with pytest.raises(SchemaError, match="numeric column 'price'"):
        Table.from_dict({"ok": ("numeric", [1.0, None]), "price": ("numeric", [2.0, "abc"])})


@pytest.mark.parametrize("kind, cells", [
    ("integer", [1, 1.5]), ("integer", ["1"]), ("integer", [2**63]),
    ("integer", np.array([1.5])), ("boolean", [True, "no"]), ("boolean", [2]),
    ("boolean", np.array([0, 1])),
])
def test_an_integer_or_boolean_cell_not_stored_as_itself_is_named(kind, cells):
    with pytest.raises(SchemaError, match=f"{kind} column 'c' holds a cell that is not {kind}"):
        Table.from_dict({"c": (kind, cells)})


def test_integer_and_boolean_cells_equal_to_their_stored_value_are_kept():
    # an int equal to the cell is stored: True and 1.0 as 1, 0 as False
    assert Column.of("integer", [True, 1.0, None, 7]).cells() == [1, 1, None, 7]
    assert Column.of("integer", np.array([True, False])).cells() == [1, 0]
    assert Column.of("boolean", [1, 0.0, None]).cells() == [True, False, None]


def _reference_take(table, indices):
    return Table(table.names, tuple(Column.of(c.kind, [c.cells()[i] for i in indices])
                                    for c in table.cols))


def _reference_drop_duplicates(table, keys):
    key_cols = [table.column(k) for k in keys]
    seen, keep = set(), []
    for i in range(table.n_rows):
        key = tuple(c.cells()[i] for c in key_cols)
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return _reference_take(table, keep)


def _reference_inner_join(left, right, left_on, right_on):
    index = {}
    for j, key in enumerate(right.cells(right_on)):
        if key is not None:
            index.setdefault(key, []).append(j)
    left_rows, right_rows = [], []
    for i, key in enumerate(left.cells(left_on)):
        for j in index.get(key, ()):
            left_rows.append(i)
            right_rows.append(j)
    data = {}
    for name, col in zip(left.names, left.cols):
        data[name] = (col.kind, [col.cells()[i] for i in left_rows])
    for name, col in zip(right.names, right.cols):
        if name == right_on:
            continue
        data[name if name not in data else f"{name}_r"] = (col.kind, [col.cells()[j] for j in right_rows])
    return Table.from_dict(data)


_KEYS = st.none() | st.integers(0, 3)


@st.composite
def keyed_tables(draw, names):
    n = draw(st.integers(0, 6))
    return Table.from_dict({name: ("integer", draw(st.lists(_KEYS, min_size=n, max_size=n)))
                            for name in names})


@settings(max_examples=150, deadline=None)
@given(keyed_tables(["k", "a", "x"]), st.data())
def test_take_and_drop_duplicates_match_their_loops(table, data):
    for indices in ([], [0], [0, 0], list(range(table.n_rows))[::-1], [-1]):
        indices = [i for i in indices if -table.n_rows <= i < table.n_rows]
        assert table.take(indices) == _reference_take(table, indices)
        assert table.take(np.array(indices, dtype=np.intp)) == _reference_take(table, indices)
    keys = data.draw(st.lists(st.sampled_from(["k", "a", "x"]), max_size=3, unique=True))
    assert drop_duplicates(table, keys) == _reference_drop_duplicates(table, keys)


@settings(max_examples=150, deadline=None)
@given(keyed_tables(["k", "x", "x_r"]), keyed_tables(["k", "id", "x", "y"]))
def test_inner_join_matches_its_loop(left, right):
    for right_on in ("k", "id"):
        assert inner_join(left, right, "k", right_on) == _reference_inner_join(left, right, "k", right_on)
