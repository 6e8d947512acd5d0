"""Column-typed tabular container, CSV ingestion, and value cleaning.

Tables are immutable: every operation returns a new table. A cell is either a
typed value or ``None`` (the explicit missing marker); nothing is silently
coerced. CSV ingestion is schema-driven and reports what it could not parse.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass, field

from .errors import SchemaError

KINDS = ("numeric", "integer", "text", "boolean", "date")

# Parse kinds accepted by schemas. "currency" parses "$1,250.00"-style strings
# (and bare numbers) into a numeric column.
PARSE_KINDS = KINDS + ("currency",)

_TRUE_TOKENS = {"t", "true", "1", "yes"}
_FALSE_TOKENS = {"f", "false", "0", "no"}


@dataclass(frozen=True)
class Column:
    """A single typed column; ``values[i] is None`` marks a missing cell."""

    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_missing(self) -> int:
        return sum(1 for v in self.values if v is None)


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

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def column(self, name: str) -> Column:
        try:
            return self.cols[self.names.index(name)]
        except ValueError:
            raise SchemaError(f"no column named {name!r}") from None

    def values(self, name: str) -> tuple:
        return self.column(name).values

    def row(self, i: int) -> dict:
        return {n: c.values[i] for n, c in zip(self.names, self.cols)}

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
        idx = list(indices)
        cols = tuple(
            Column(c.kind, tuple(c.values[i] for i in idx)) for c in self.cols
        )
        return Table(self.names, cols)

    def filter(self, mask) -> "Table":
        return self.take([i for i, keep in enumerate(mask) if keep])

    @staticmethod
    def from_dict(data: dict[str, tuple[str, list]]) -> "Table":
        """Build from ``{name: (kind, values)}`` preserving insertion order."""
        names = tuple(data.keys())
        cols = tuple(Column(k, tuple(v)) for k, v in data.values())
        return Table(names, cols)


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
    currency cell that parses to nan or +-inf is coerced to missing."""
    if raw == "":
        return None, False
    try:
        if kind == "text":
            return raw, False
        if kind == "integer":
            return int(raw), False
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


def read_csv(path, schema: Schema) -> tuple[Table, LoadReport]:
    """Load a headered CSV into a typed Table.

    Columns named in the schema are parsed to their kind; unparseable cells
    become missing markers and are counted in the report. Header columns not
    in the schema are kept as text and listed as untyped. A missing required
    column is a SchemaError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: no header row") from None
        rows = list(reader)

    missing_req = [c for c in schema.required if c not in header]
    if missing_req:
        raise SchemaError(f"{path}: missing required column(s) {sorted(missing_req)}")

    report = LoadReport(path=str(path), n_rows=len(rows))
    names: list[str] = []
    cols: list[Column] = []
    untyped: list[str] = []
    for j, name in enumerate(header):
        parse_kind = schema.fields.get(name)
        if parse_kind is None:
            parse_kind = "text"
            untyped.append(name)
        coerced = 0
        values = []
        for row in rows:
            raw = row[j] if j < len(row) else ""
            value, bad = _parse_cell(raw, parse_kind)
            coerced += bad
            values.append(value)
        if coerced:
            report.coerced_missing[name] = coerced
        names.append(name)
        cols.append(Column(_storage_kind(parse_kind), tuple(values)))
    report.untyped_columns = tuple(untyped)
    return Table(tuple(names), tuple(cols)), report


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # exact round-trip; normalizes float subclasses
    if isinstance(value, _dt.date):
        return value.isoformat()
    return str(value)


def write_csv(table: Table, path) -> None:
    """Write RFC-4180 CSV; missing cells become empty fields."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for i in range(table.n_rows):
            writer.writerow([_format_cell(c.values[i]) for c in table.cols])


def schema_of(table: Table, name: str = "derived") -> Schema:
    """Schema that re-reads what write_csv produced for this table."""
    return Schema(name, {n: c.kind for n, c in zip(table.names, table.cols)}, frozenset())


def clean_currency(col: Column) -> Column:
    """Strip '$' and ',' from a text column and parse as decimal.

    Parse failures (including empty strings) and text that parses to nan or
    +-inf degrade to missing, as in _parse_cell.
    """
    if col.kind != "text":
        raise SchemaError(f"clean_currency expects a text column, got {col.kind}")
    out = []
    for v in col.values:
        if v is None:
            out.append(None)
            continue
        stripped = v.replace("$", "").replace(",", "").strip()
        try:
            value = float(stripped)
        except ValueError:
            value = math.nan
        out.append(value if math.isfinite(value) else None)
    return Column("numeric", tuple(out))


def drop_duplicates(table: Table, keys: list[str]) -> Table:
    """Keep the first row for each key tuple; row order is stable."""
    key_cols = [table.column(k) for k in keys]
    seen = set()
    keep = []
    for i in range(table.n_rows):
        key = tuple(c.values[i] for c in key_cols)
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return table.take(keep)


def inner_join(left: Table, right: Table, left_on: str, right_on: str) -> Table:
    """Inner join; left row order preserved, matches in right row order.

    Right-side columns keep their names except the join key; collisions get a
    "_r" suffix. Rows with a missing key never match.
    """
    right_key = right.column(right_on)
    index: dict = {}
    for j, key in enumerate(right_key.values):
        if key is not None:
            index.setdefault(key, []).append(j)

    left_rows: list[int] = []
    right_rows: list[int] = []
    for i, key in enumerate(left.column(left_on).values):
        for j in index.get(key, ()):
            left_rows.append(i)
            right_rows.append(j)

    data: dict[str, tuple[str, list]] = {}
    for name, col in zip(left.names, left.cols):
        data[name] = (col.kind, [col.values[i] for i in left_rows])
    for name, col in zip(right.names, right.cols):
        if name == right_on:
            continue
        out_name = name if name not in data else f"{name}_r"
        data[out_name] = (col.kind, [col.values[j] for j in right_rows])
    return Table.from_dict(data)


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
