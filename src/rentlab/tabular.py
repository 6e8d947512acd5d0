"""Column-typed tabular container, CSV ingestion, and value cleaning.

Tables are immutable: every operation returns a new table. A column is one
array of typed values and one mask of its missing cells; nothing is silently
coerced. CSV ingestion is schema-driven and reports what it could not parse.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, compress, repeat
from operator import methodcaller

import numpy as np

from .errors import SchemaError

KINDS = ("numeric", "integer", "text", "boolean", "date")

# Parse kinds accepted by schemas. "currency" parses "$1,250.00"-style strings
# (and bare numbers) into a numeric column.
PARSE_KINDS = KINDS + ("currency",)

_TRUE_TOKENS = {"t", "true", "1", "yes"}
_FALSE_TOKENS = {"f", "false", "0", "no"}

# each kind's array dtype, and what a missing cell of the kind holds
_DTYPES = {"numeric": np.float64, "integer": np.int64, "boolean": np.bool_, "text": object, "date": object}
_MASKED = {"numeric": math.nan, "integer": 0, "boolean": False, "text": None, "date": None}


@dataclass(frozen=True, eq=False)
class Column:
    """A single typed column: ``values``, an array of the kind's dtype, and
    ``missing``, a bool array marking the missing cells (Arrow's validity
    bitmap, inverted), which hold NaN, 0, False or None."""

    kind: str
    values: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r}")

    @staticmethod
    def of(kind: str, cells, name: str = "") -> "Column":
        """A column of Python cells, None marking a missing one, or of an
        array, which has no missing cell. A cell that does not convert to
        the kind is a SchemaError naming the column; so is an integer or
        boolean cell that would not be stored as itself (1.5 as 1, "no" as
        True), or an array that does not cast to the kind without loss."""
        array = isinstance(cells, np.ndarray) and cells.dtype != object
        if array:
            missing = np.zeros(len(cells), dtype=bool)
        else:
            cells = list(cells)
            missing = np.array([c is None for c in cells], dtype=bool)
            if missing.any():
                cells = [_MASKED.get(kind) if c is None else c for c in cells]
        try:
            values = np.array(cells, dtype=_DTYPES.get(kind))
            exact = kind not in ("integer", "boolean") or (
                np.can_cast(cells.dtype, values.dtype) if array else values.tolist() == cells)
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            label = f"{kind} column {name!r}" if name else f"{kind} column"
            raise SchemaError(f"{label} holds a cell that is not {kind}")
        return Column(kind, values, missing)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, Column) and self.kind == other.kind and self.cells() == other.cells()

    @property
    def n_missing(self) -> int:
        return int(self.missing.sum())

    def cells(self, rows: slice = slice(None)) -> list:
        """The Python cells of ``rows``, None for a missing one: what
        ``Column.of`` takes."""
        cells = self.values[rows].tolist()
        for i in np.flatnonzero(self.missing[rows]).tolist():
            cells[i] = None
        return cells

    def take(self, indices) -> "Column":
        return Column(self.kind, self.values[indices], self.missing[indices])


@dataclass(frozen=True)
class Table:
    """Ordered collection of equally long, uniquely named columns."""

    names: tuple[str, ...]
    cols: tuple[Column, ...]

    def __post_init__(self):
        if len(self.names) != len(self.cols):
            raise SchemaError("names and columns differ in count")
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in self.names if self.names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        lengths = {len(c) for c in self.cols}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns, lengths {sorted(lengths)}")

    @property
    def n_rows(self) -> int:
        return len(self.cols[0]) if self.cols else 0

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def column(self, name: str) -> Column:
        try:
            return self.cols[self.names.index(name)]
        except ValueError:
            raise SchemaError(f"no column named {name!r}") from None

    def cells(self, name: str) -> list:
        return self.column(name).cells()

    def rows(self) -> list[dict]:
        """Each row as a dict of its Python cells, None for a missing one."""
        return [dict(zip(self.names, cells)) for cells in zip(*(c.cells() for c in self.cols))]

    def with_column(self, name: str, col: Column) -> "Table":
        """Append a column, or replace it if the name already exists."""
        if self.cols and len(col) != self.n_rows:
            raise SchemaError(
                f"column {name!r} has {len(col)} rows, table has {self.n_rows}"
            )
        if name in self.names:
            i = self.names.index(name)
            cols = self.cols[:i] + (col,) + self.cols[i + 1 :]
            return Table(self.names, cols)
        return Table(self.names + (name,), self.cols + (col,))

    def without_columns(self, names: list[str]) -> "Table":
        drop = set(names)
        keep = [(n, c) for n, c in zip(self.names, self.cols) if n not in drop]
        return Table(tuple(n for n, _ in keep), tuple(c for _, c in keep))

    def take(self, indices) -> "Table":
        """Row subset/reorder by integer indices."""
        idx = np.asarray(indices, dtype=np.intp)
        return Table(self.names, tuple(c.take(idx) for c in self.cols))

    def filter(self, mask) -> "Table":
        return self.take(np.flatnonzero(mask))

    @staticmethod
    def from_dict(data: dict[str, tuple[str, list]]) -> "Table":
        """Build from ``{name: (kind, cells)}`` preserving insertion order."""
        return Table(tuple(data), tuple(Column.of(k, v, n) for n, (k, v) in data.items()))


@dataclass(frozen=True)
class Schema:
    """Parse descriptor: column name -> parse kind, with a required subset."""

    name: str
    fields: dict[str, str]
    required: frozenset[str]

    def __post_init__(self):
        for col, kind in self.fields.items():
            if kind not in PARSE_KINDS:
                raise SchemaError(f"{self.name}: bad parse kind {kind!r} for {col!r}")
        unknown = self.required - set(self.fields)
        if unknown:
            raise SchemaError(f"{self.name}: required columns not in fields: {sorted(unknown)}")


@dataclass
class LoadReport:
    """What ingestion dropped or could not type."""

    path: str = ""
    n_rows: int = 0
    coerced_missing: dict[str, int] = field(default_factory=dict)
    untyped_columns: tuple[str, ...] = ()

    @property
    def total_coerced(self) -> int:
        return sum(self.coerced_missing.values())


def _parse_cell(raw: str, kind: str):
    """Parse one CSV cell; return (value_or_None, was_coerced). A numeric or
    currency cell that parses to nan or +-inf, and an integer cell outside
    int64, is coerced to missing."""
    if raw == "":
        return None, False
    try:
        if kind == "text":
            return raw, False
        if kind == "integer":
            value = int(raw)
            return (value, False) if -2**63 <= value < 2**63 else (None, True)
        if kind in ("numeric", "currency"):
            text = raw.replace("$", "").replace(",", "") if kind == "currency" else raw
            value = float(text)
            if not math.isfinite(value):
                return None, True
            return value, False
        if kind == "boolean":
            low = raw.strip().lower()
            if low in _TRUE_TOKENS:
                return True, False
            if low in _FALSE_TOKENS:
                return False, False
            return None, True
        if kind == "date":
            return _dt.date.fromisoformat(raw.strip()), False
    except (ValueError, TypeError):
        return None, True
    return None, True


def _storage_kind(parse_kind: str) -> str:
    return "numeric" if parse_kind == "currency" else parse_kind


def _parse_column(cells, kind: str) -> tuple[Column, int]:
    """``_parse_cell`` of every cell of a column, each distinct cell parsed
    once: the column and how many cells were coerced to missing."""
    # each distinct cell's row in values and coerced; two lists, not one of
    # (value, coerced) pairs, whose tuples would be most of the parse's memory
    index = dict.fromkeys(cells)
    values, coerced = [], []
    for i, cell in enumerate(index):
        index[cell] = i
        value, bad = _parse_cell(cell, kind)
        values.append(value)
        coerced.append(bad)
    rows = np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))
    return Column.of(_storage_kind(kind), values).take(rows), int(np.array(coerced, dtype=bool)[rows].sum())


def read_csv(path, schema: Schema) -> tuple[Table, LoadReport]:
    """Load a headered CSV into a typed Table.

    Columns named in the schema are parsed to their kind; unparseable cells
    become missing markers and are counted in the report. Header columns not
    in the schema are kept as text and listed as untyped. Blank lines are
    skipped. A missing required column, or a row with more or fewer cells
    than the header, is a SchemaError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: no header row") from None
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise SchemaError(f"{path}: line {reader.line_num}: the row has {len(row)} cells, "
                                  f"the header {len(header)}")
            rows.append(row)

    missing_req = [c for c in schema.required if c not in header]
    if missing_req:
        raise SchemaError(f"{path}: missing required column(s) {sorted(missing_req)}")

    report = LoadReport(path=str(path), n_rows=len(rows))
    cols: list[Column] = []
    untyped: list[str] = []
    for name, cells in zip(header, zip(*rows) if rows else repeat(())):
        parse_kind = schema.fields.get(name)
        if parse_kind is None:
            parse_kind = "text"
            untyped.append(name)
        col, coerced = _parse_column(cells, parse_kind)
        if coerced:
            report.coerced_missing[name] = coerced
        cols.append(col)
    report.untyped_columns = tuple(untyped)
    return Table(tuple(header), tuple(cols)), report


# write_columns formats this many rows at a time, holding a block as one list
# of strings per column (8 bytes a cell) and freeing it before the next
_CSV_BLOCK_ROWS = 512
# csv.writer's default dialect quotes a field that holds any of these
_QUOTED_CHARS = re.compile('[,"\r\n]')
# how write_columns formats a present cell of each kind but numeric
_FORMATS = {"integer": str, "text": str, "date": methodcaller("isoformat"),
            "boolean": lambda v: "true" if v else "false"}


def _distinct_cells(values: list, fmt) -> list[str]:
    """``fmt`` of each value, an empty field for a missing one, quoted as
    csv.writer quotes it: each distinct value formatted and quoted once."""
    text = {v: "" if v is None else fmt(v) for v in dict.fromkeys(values)}
    if _QUOTED_CHARS.search("".join(text.values())):
        # as csv.writer quotes a field: in '"', with an inner '"' doubled
        text = {v: '"' + cell.replace('"', '""') + '"' if _QUOTED_CHARS.search(cell) else cell
                for v, cell in text.items()}
    return list(map(text.__getitem__, values))


def _repr_cells(block: np.ndarray) -> np.ndarray:
    """``repr`` of each cell of a 2-d block as a float64, and an empty field
    for a NaN, as an object array of its shape: one sort of the cells' bit
    patterns, one ``repr`` per distinct pattern and one take. Keyed on the
    bit pattern, -0.0 and 0.0 stay distinct. (``np.unique`` would do the
    sort, but its first call imports ``numpy.ma``, about 1 MB.)"""
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.int64)
    distinct = np.sort(bits, axis=None)
    first = np.ones(distinct.size, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    text = np.array([repr(v) if v == v else "" for v in distinct.view(np.float64).tolist()],
                    dtype=object)
    return text[distinct.searchsorted(bits)]


def write_columns(path, names, columns) -> None:
    """Write RFC-4180 CSV: the header, then the equally long columns a block
    of rows at a time. A column is a Column or a float64 array, formatted by
    kind: the floats (numeric Columns and arrays) together by ``_repr_cells``,
    others by ``_distinct_cells``. Cells are quoted as csv.writer quotes them."""
    n_rows = len(columns[0]) if columns else 0
    kinds = [c.kind if isinstance(c, Column) else "numeric" for c in columns]
    # a missing numeric cell holds NaN, which _repr_cells writes empty
    floats = [getattr(c, "values", c) for c, kind in zip(columns, kinds) if kind == "numeric"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names)
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            text = _repr_cells(np.array([f[start:stop] for f in floats])) if floats else None
            if len(floats) == len(columns) > 1:
                # a float's repr holds nothing csv.writer quotes
                rows = text.T.tolist()
            else:
                float_cells = iter(text.tolist() if floats else ())
                cells = [next(float_cells) if kind == "numeric"
                         else _distinct_cells(c.cells(slice(start, stop)), _FORMATS[kind])
                         for c, kind in zip(columns, kinds)]
                if len(cells) == 1:
                    # csv.writer quotes a row's lone empty field
                    cells = [[cell or '""' for cell in cells[0]]]
                rows = zip(*cells)
            fh.write("".join([",".join(row) + "\r\n" for row in rows]))


def write_csv(table: Table, path) -> None:
    """Write a table as RFC-4180 CSV; missing cells become empty fields."""
    write_columns(path, table.names, table.cols)


def clean_currency(col: Column) -> Column:
    """Parse a text column as currency cells, as _parse_cell does: '$' and ','
    are stripped, and unparseable, empty or non-finite text becomes missing."""
    if col.kind != "text":
        raise SchemaError(f"clean_currency expects a text column, got {col.kind}")
    return _parse_column([v or "" for v in col.values.tolist()], "currency")[0]


def group_means(keys, values: Column) -> tuple[dict, float | None]:
    """Mean of a numeric or integer column's values per key (a Python cell),
    and the mean of every non-missing value (None when there is none).

    A row with a missing value is skipped; a row with a missing key (None)
    counts only toward the overall mean. Values are added in row order with
    ``+`` from 0.0, so a mean is reproducible to the last bit.
    """
    sums: dict = {}
    counts: dict = {}
    total, n = 0.0, 0
    for key, v in compress(zip(keys, values.values.tolist()), (~values.missing).tolist()):
        total += v
        n += 1
        if key is not None:
            sums[key] = sums.get(key, 0.0) + v
            counts[key] = counts.get(key, 0) + 1
    return {key: s / counts[key] for key, s in sums.items()}, (total / n if n else None)


def shipped_file(name: str):
    """Context manager giving a filesystem path to a file in rentlab/data."""
    return resources.as_file(resources.files("rentlab.data").joinpath(name))


def drop_duplicates(table: Table, keys: list[str]) -> Table:
    """Keep the first row for each key tuple; row order is stable."""
    cols = [table.cells(k) for k in keys]
    rows = list(zip(*cols)) if cols else [()] * table.n_rows
    # built from the last row back, each key ends up with its first row
    first = dict(zip(reversed(rows), range(len(rows) - 1, -1, -1)))
    return table.take(sorted(first.values()))


def join_rows(left_keys, right_keys) -> tuple[np.ndarray, np.ndarray]:
    """The (left, right) row indices of an inner join on two key columns:
    left rows in order, each with its matches in right row order. A missing
    key never matches."""
    index: dict = {}
    for j, key in enumerate(right_keys):
        if key is not None:
            index.setdefault(key, []).append(j)
    matches = list(map(index.get, left_keys, repeat(())))
    left = np.arange(len(matches)).repeat(list(map(len, matches)))
    right = np.fromiter(chain.from_iterable(matches), dtype=np.intp, count=left.size)
    return left, right


def join_columns(left: Table, right: Table, right_on: str) -> dict[str, tuple[int, Column]]:
    """``inner_join``'s columns in order, by name, each with its side (0 for
    left, 1 for right) and its column there. Right-side columns keep their
    names except the join key; collisions get a "_r" suffix."""
    out = {name: (0, col) for name, col in zip(left.names, left.cols)}
    for name, col in zip(right.names, right.cols):
        if name != right_on:
            out[name if name not in out else f"{name}_r"] = (1, col)
    return out


def inner_join(left: Table, right: Table, left_on: str, right_on: str) -> Table:
    """Inner join; left row order preserved, matches in right row order.

    Right-side columns keep their names except the join key; collisions get a
    "_r" suffix. Rows with a missing key never match.
    """
    rows = join_rows(left.cells(left_on), right.cells(right_on))
    columns = join_columns(left, right, right_on)
    return Table(tuple(columns), tuple(col.take(rows[side]) for side, col in columns.values()))


def _airbnb_listings_fields() -> dict[str, str]:
    # Full column list of the public listings dump; the generator and the
    # pipeline only need the required subset below.
    fields = {
        "id": "integer",
        "listing_url": "text",
        "scrape_id": "integer",
        "last_scraped": "date",
        "source": "text",
        "name": "text",
        "description": "text",
        "neighborhood_overview": "text",
        "picture_url": "text",
        "host_id": "integer",
        "host_url": "text",
        "host_name": "text",
        "host_since": "date",
        "host_location": "text",
        "host_about": "text",
        "host_response_time": "text",
        "host_response_rate": "text",
        "host_acceptance_rate": "text",
        "host_is_superhost": "boolean",
        "host_thumbnail_url": "text",
        "host_picture_url": "text",
        "host_neighbourhood": "text",
        "host_listings_count": "integer",
        "host_total_listings_count": "integer",
        "host_verifications": "text",
        "host_has_profile_pic": "boolean",
        "host_identity_verified": "boolean",
        "neighbourhood": "text",
        "neighbourhood_cleansed": "text",
        "neighbourhood_group_cleansed": "text",
        "latitude": "numeric",
        "longitude": "numeric",
        "property_type": "text",
        "room_type": "text",
        "accommodates": "integer",
        "bathrooms": "numeric",
        "bathrooms_text": "text",
        "bedrooms": "integer",
        "beds": "integer",
        "amenities": "text",
        "price": "currency",
        "minimum_nights": "integer",
        "maximum_nights": "integer",
        "minimum_minimum_nights": "integer",
        "maximum_minimum_nights": "integer",
        "minimum_maximum_nights": "integer",
        "maximum_maximum_nights": "integer",
        "minimum_nights_avg_ntm": "numeric",
        "maximum_nights_avg_ntm": "numeric",
        "calendar_updated": "text",
        "has_availability": "boolean",
        "availability_30": "integer",
        "availability_60": "integer",
        "availability_90": "integer",
        "availability_365": "integer",
        "calendar_last_scraped": "date",
        "number_of_reviews": "integer",
        "number_of_reviews_ltm": "integer",
        "number_of_reviews_l30d": "integer",
        "first_review": "date",
        "last_review": "date",
        "review_scores_rating": "numeric",
        "review_scores_accuracy": "numeric",
        "review_scores_cleanliness": "numeric",
        "review_scores_checkin": "numeric",
        "review_scores_communication": "numeric",
        "review_scores_location": "numeric",
        "review_scores_value": "numeric",
        "license": "text",
        "instant_bookable": "boolean",
        "calculated_host_listings_count": "integer",
        "calculated_host_listings_count_entire_homes": "integer",
        "calculated_host_listings_count_private_rooms": "integer",
        "calculated_host_listings_count_shared_rooms": "integer",
        "reviews_per_month": "numeric",
    }
    return fields


LISTINGS_SCHEMA = Schema(
    "listings",
    _airbnb_listings_fields(),
    frozenset(
        {
            "id",
            "host_id",
            "latitude",
            "longitude",
            "room_type",
            "accommodates",
            "bedrooms",
            "beds",
            "amenities",
        }
    ),
)

CALENDAR_SCHEMA = Schema(
    "calendar",
    {
        "listing_id": "integer",
        "date": "date",
        "available": "boolean",
        "price": "currency",
        "adjusted_price": "currency",
        "minimum_nights": "integer",
        "maximum_nights": "integer",
        # post-processed dumps carry a derived month column
        "month": "integer",
    },
    frozenset({"listing_id", "date", "price"}),
)

REVIEWS_SCHEMA = Schema(
    "reviews",
    {
        "listing_id": "integer",
        "id": "integer",
        "date": "date",
        "reviewer_id": "integer",
        "reviewer_name": "text",
        "comments": "text",
    },
    frozenset({"listing_id", "id", "date", "comments"}),
)
