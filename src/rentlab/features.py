"""Feature engineering: POI distances, amenity binarization, date expansion,
one-hot encoding, standardization, and design-matrix assembly."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from operator import attrgetter, methodcaller

import numpy as np

from .errors import AssemblyError, SchemaError
from .tabular import (
    Column,
    Table,
    _parse_cell,
    join_columns,
    join_rows,
    shipped_file,
    write_columns,
)

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class PoiSet:
    """Named points of interest; order fixes the feature column order."""

    pois: tuple[tuple[str, GeoPoint], ...]

    def __post_init__(self):
        names = [n for n, _ in self.pois]
        if len(set(names)) != len(names):
            raise ValueError("POI names must be unique")

    def __len__(self) -> int:
        return len(self.pois)


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense design matrix with named columns and a target vector."""

    x: np.ndarray
    feature_names: tuple[str, ...]
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2:
            raise AssemblyError(f"x must be 2-d, got shape {self.x.shape}")
        if len(self.feature_names) != self.x.shape[1]:
            raise AssemblyError(
                f"{len(self.feature_names)} names for {self.x.shape[1]} columns"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise AssemblyError("feature names must be unique")
        if self.y.shape != (self.x.shape[0],):
            raise AssemblyError(f"y shape {self.y.shape} mismatches x {self.x.shape}")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise AssemblyError("feature matrix contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def take(self, indices) -> "FeatureMatrix":
        idx = np.asarray(indices)
        return FeatureMatrix(self.x[idx], self.feature_names, self.y[idx])

    def select(self, names: list[str]) -> "FeatureMatrix":
        pos = [self.feature_names.index(n) for n in names]
        return FeatureMatrix(self.x[:, pos], tuple(names), self.y)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometers (R = 6371.0088 km)."""
    la1, lo1, la2, lo2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s = (
        math.sin((la2 - la1) / 2.0) ** 2
        + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def load_pois(path) -> PoiSet:
    """Read a name,lat,lon CSV into a PoiSet, skipping blank lines. A short
    row, or a coordinate that is not a number or out of range, raises
    SchemaError naming the file, the line and the column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip().lower() for h in header[:3]] != ["name", "lat", "lon"]:
            raise SchemaError(f"{path}: POI file must have header name,lat,lon")
        pois = []
        for row in filter(None, reader):
            where = f"{path}: line {reader.line_num}, column"
            if len(row) < 3:
                raise SchemaError(f"{where} {header[len(row)]!r}: the row has {len(row)} cells, "
                                  f"the header {len(header)}")
            coords = [_parse_cell(cell, "numeric")[0] for cell in row[1:3]]
            for column, bound, cell, value in zip(header[1:], (90.0, 180.0), row[1:], coords):
                if value is None or not -bound <= value <= bound:
                    problem = (f"not a number: {cell!r}" if value is None
                               else f"{value} is out of range [-{bound:g}, {bound:g}]")
                    raise SchemaError(f"{where} {column!r}: {problem}")
            pois.append((row[0], GeoPoint(*coords)))
    return PoiSet(tuple(pois))


def default_pois() -> PoiSet:
    """The 13 shipped Austin attractions (replaceable configuration)."""
    with shipped_file("pois_austin.csv") as path:
        return load_pois(path)


def poi_distance_features(
    table: Table,
    pois: PoiSet,
    lat: str = "latitude",
    lon: str = "longitude",
) -> tuple[Table, list[int]]:
    """Append one dist_<name>_km column per POI.

    Rows with missing coordinates get missing distances; their indices are
    returned so callers can report them.
    """
    lat_col, lon_col = table.column(lat), table.column(lon)
    bad = lat_col.missing | lon_col.missing
    here = [None if b else GeoPoint(la, lo)
            for b, la, lo in zip(bad.tolist(), lat_col.values.tolist(), lon_col.values.tolist())]
    out = table
    for name, point in pois.pois:
        values = [math.nan if p is None else haversine_km(p, point) for p in here]
        out = out.with_column(f"dist_{name}_km", Column("numeric", np.array(values), bad))
    return out, np.flatnonzero(bad).tolist()


def parse_amenities(cell: str | None) -> list[str]:
    """Split an amenities cell into a list of amenity strings: a JSON-style
    list (the raw dump format) or a semicolon-separated string."""
    if cell is None:
        return []
    text = cell.strip()
    if not text:
        return []
    if text.startswith("["):
        try:
            items = json.loads(text)
            return [str(a).strip() for a in items if str(a).strip()]
        except (json.JSONDecodeError, TypeError):
            text = text.strip("[]")
            return [a.strip().strip('"').strip() for a in text.split(",") if a.strip().strip('"')]
    return [a.strip() for a in text.split(";") if a.strip()]


def top_k_amenities(
    table: Table,
    k: int = 30,
    col: str = "amenities",
) -> list[str]:
    """The k most frequent amenity strings, ties broken alphabetically."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    counts: dict[str, int] = {}
    for cell in table.cells(col):
        for a in parse_amenities(cell):
            counts[a] = counts.get(a, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [name for name, _ in ranked[:k]]


def binarize_amenities(
    table: Table,
    amenities: list[str],
    col: str = "amenities",
) -> Table:
    """Add one 0/1 column per amenity plus amenity_count (full list length)."""
    if not amenities:
        raise ValueError("amenity list must be non-empty")
    lists = [parse_amenities(cell) for cell in table.cells(col)]
    parsed = [set(items) for items in lists]
    out = table
    for a in amenities:
        out = out.with_column(a, Column.of("integer", np.array([a in s for s in parsed])))
    return out.with_column("amenity_count", Column.of("integer", np.array(list(map(len, lists)))))


def expand_date(table: Table, date_col: str = "date") -> Table:
    """Append integer year, month (1-12), day_of_week (0=Monday) columns."""
    dates = table.column(date_col)
    if dates.kind != "date":
        raise SchemaError(f"expand_date needs a date column, {date_col!r} is {dates.kind}")
    present = dates.values[~dates.missing].tolist()
    out = table
    for name, part in (("year", attrgetter("year")), ("month", attrgetter("month")),
                       ("day_of_week", methodcaller("weekday"))):
        values = np.zeros(len(dates), dtype=np.int64)
        values[~dates.missing] = list(map(part, present))
        out = out.with_column(name, Column("integer", values, dates.missing))
    return out


def one_hot(table: Table, col: str) -> Table:
    """Replace a text column by <col>_<category> indicator columns.

    Categories are the sorted distinct non-missing values; a missing source
    cell yields all zeros.
    """
    source = table.column(col)
    if source.kind != "text":
        raise SchemaError(f"one_hot needs a text column, {col!r} is {source.kind}")
    out = table.without_columns([col])
    for cat in sorted(set(source.cells()) - {None}):
        out = out.with_column(f"{col}_{cat}", Column.of("integer", source.values == cat))
    return out


def standardize(m: FeatureMatrix) -> FeatureMatrix:
    """Scale every column to zero mean, unit (population) std; constant
    columns become all-zero."""
    const = np.ptp(m.x, axis=0) == 0.0
    std = m.x.std(axis=0)
    # assemble_matrix's layout: x and y are views of one block, target last
    data = np.empty((m.n_rows, m.n_features + 1))
    x = data[:, :-1]
    np.subtract(m.x, m.x.mean(axis=0), out=x)
    x /= np.where(const, 1.0, std)
    x[:, const] = 0.0
    data[:, -1] = m.y
    return FeatureMatrix(x, m.feature_names, data[:, -1])


ID_COLUMNS = frozenset({"id", "listing_id", "host_id", "reviewer_id", "scrape_id"})


def assemble_matrix(table: Table, target: str, feature_cols: list[str]) -> FeatureMatrix:
    """Stack the named columns into a float design matrix, target last-checked.

    Any missing cell aborts assembly with the offending column and rows named.
    """
    offending: list[str] = []
    arrays = []
    for name in feature_cols + [target]:
        col = table.column(name)
        if col.kind not in ("numeric", "integer", "boolean"):
            raise AssemblyError(f"column {name!r} has kind {col.kind}, need numeric")
        rows = np.flatnonzero(col.missing).tolist()
        if rows:
            head = ", ".join(map(str, rows[:5]))
            offending.append(f"{name} (rows {head}{'...' if len(rows) > 5 else ''})")
            continue
        arrays.append(col.values.astype(np.float64))
    if offending:
        raise AssemblyError("missing cells in: " + "; ".join(offending))
    # x and y are views of one block, target last, the layout matrix_from_csv
    # reads back: a strided y takes another BLAS path in fits (a.T @ y), so
    # only the same layout gives bit-identical models either way.
    data = np.column_stack(arrays)
    return FeatureMatrix(data[:, :-1], tuple(feature_cols), data[:, -1])


def join_matrix(left: Table, right: Table, left_on: str, right_on: str, target: str) -> FeatureMatrix:
    """The design matrix of ``joined = inner_join(left, right, left_on,
    right_on)`` without building ``joined``: the target, and as features
    every other numeric, integer or boolean column that is not an id, has no
    missing cell and has at least two distinct values (a constant column
    collides with the intercept). ``assemble_matrix`` of ``joined`` and those
    features gives the same matrix bit for bit, and the same errors.

    The join gives its (left, right) row indices once. A joined column holds
    the values of its side's rows that the join uses, so a column is a
    feature if those rows pass the test: about a hundred listings, not a row
    per listing-day. Each chosen column is gathered by its side's join
    indices straight into its column of the matrix."""
    rows = join_rows(left.cells(left_on), right.cells(right_on))
    columns = join_columns(left, right, right_on)
    # each side's rows that the join uses, once each
    used = [np.flatnonzero(np.bincount(r, minlength=t.n_rows)) for r, t in zip(rows, (left, right))]
    features = [
        name
        for name, (side, col) in columns.items()
        if name != target and name not in ID_COLUMNS
        and col.kind in ("numeric", "integer", "boolean")
        and not col.missing[used[side]].any()
        and ((values := col.values[used[side]])[1:] != values[:1]).any()
    ]
    if target not in columns:
        raise SchemaError(f"no column named {target!r}")
    side, col = columns[target]
    if col.kind not in ("numeric", "integer", "boolean"):
        raise AssemblyError(f"column {target!r} has kind {col.kind}, need numeric")
    missing = np.flatnonzero(col.missing[rows[side]]).tolist()
    if missing:
        head = ", ".join(map(str, missing[:5]))
        raise AssemblyError(f"missing cells in: {target} (rows {head}{'...' if len(missing) > 5 else ''})")
    data = np.empty((rows[0].size, len(features) + 1))
    for j, name in enumerate(features + [target]):
        side, col = columns[name]
        data[:, j] = col.values[rows[side]]
    # assemble_matrix's layout: x and y are views of one block, target last
    return FeatureMatrix(data[:, :-1], tuple(features), data[:, -1])


TARGET_HEADER = "target"


def matrix_to_csv(m: FeatureMatrix, path) -> None:
    """Serialize a FeatureMatrix: header = feature names, final col = target,
    each cell the ``repr`` of its float64."""
    if TARGET_HEADER in m.feature_names:
        raise AssemblyError(f"feature named {TARGET_HEADER!r} collides with target column")
    write_columns(path, [*m.feature_names, TARGET_HEADER], [*m.x.T, m.y])


def matrix_from_csv(path) -> FeatureMatrix:
    """Read a matrix that matrix_to_csv wrote. A ragged row, or an empty,
    non-numeric or non-finite cell, raises AssemblyError naming the file,
    the line and the column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[-1] != TARGET_HEADER:
            raise SchemaError(f"{path}: last column must be {TARGET_HEADER!r}")
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}, column"
            if len(row) != len(header):
                # a short row names its first column without a cell, a long one the last
                column = header[min(len(row), len(header) - 1)]
                raise AssemblyError(f"{where} {column!r}: the row has {len(row)} cells, "
                                    f"the header {len(header)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                column, cell = next((h, c) for h, c in zip(header, row)
                                    if _parse_cell(c, "numeric")[0] is None)
                problem = f"not a number: {cell!r}" if cell.strip() else "empty cell"
                raise AssemblyError(f"{where} {column!r}: {problem}") from None
            lines.append(reader.line_num)
    data = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise AssemblyError(f"{path}: line {lines[i]}, column {header[j]!r}: "
                            f"{data[i, j]} is not a finite number")
    return FeatureMatrix(data[:, :-1], tuple(header[:-1]), data[:, -1])
