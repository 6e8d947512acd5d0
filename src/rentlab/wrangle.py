"""Outlier removal, missing-value imputation, and calendar gap backfill.

All operations are pure table-in/table-out; optional entries are appended to a
StageReport so the CLI can emit the operation/column/rows_affected CSV.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass

from .errors import EmptyInputError, SchemaError
from .features import haversine_km, GeoPoint
from .report import StageReport
from .tabular import Column, Table, group_means

DEFAULT_IQR_MULTIPLIER = 0.5
DEFAULT_KNN_K = 10
DEFAULT_WARN_RADIUS_KM = 10.0


@dataclass(frozen=True)
class Fences:
    """IQR fences: lower = q1 - m*(q3-q1), upper = q3 + m*(q3-q1)."""

    lower: float
    upper: float
    q1: float
    q3: float
    multiplier: float

    def contains(self, v: float) -> bool:
        return self.lower <= v <= self.upper


@dataclass(frozen=True)
class GapSpec:
    """Inclusive date range with no calendar coverage."""

    start: _dt.date
    end: _dt.date

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"gap_start {self.start} is after gap_end {self.end}")

    def dates(self) -> list[_dt.date]:
        n = (self.end - self.start).days + 1
        return [self.start + _dt.timedelta(days=i) for i in range(n)]


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile at position (n-1)*q, missing excluded.

    A non-finite value (nan, +-inf) raises ValueError naming it.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    xs = [v for v in values if v is not None]
    for v in xs:
        if not math.isfinite(v):
            raise ValueError(f"quantile of non-finite input value {v!r}")
    xs.sort()
    if not xs:
        raise EmptyInputError("quantile of all-missing input")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def iqr_fences(values, multiplier: float = DEFAULT_IQR_MULTIPLIER) -> Fences:
    """Fences from the 25th/75th percentiles of the non-missing values."""
    if multiplier < 0:
        raise ValueError(f"multiplier must be >= 0, got {multiplier}")
    q1 = quantile(values, 0.25)
    q3 = quantile(values, 0.75)
    iqr = q3 - q1
    return Fences(q1 - multiplier * iqr, q3 + multiplier * iqr, q1, q3, multiplier)


def remove_outliers(
    table: Table,
    col: str,
    multiplier: float = DEFAULT_IQR_MULTIPLIER,
    report: StageReport | None = None,
) -> Table:
    """Drop rows whose value falls outside fences computed once, pre-filter.

    Missing-valued rows are retained; they belong to the impute chain.
    """
    column = table.column(col)
    if column.kind not in ("numeric", "integer"):
        raise TypeError(f"remove_outliers needs a numeric column, {col!r} is {column.kind}")
    if column.n_missing == len(column):
        raise EmptyInputError(f"remove_outliers: {col!r} has no non-missing value")
    fences = iqr_fences(column.values, multiplier)
    mask = [v is None or fences.contains(v) for v in column.values]
    out = table.filter(mask)
    if report is not None:
        report.add("remove_outliers", col, table.n_rows - out.n_rows,
                   f"lower={fences.lower!r};upper={fences.upper!r}")
    return out


def impute_group_mean(
    table: Table,
    target: str,
    group: str,
    report: StageReport | None = None,
) -> Table:
    """Fill missing target cells with the mean over the same group's values.

    Groups with no non-missing member (or a missing group key) stay missing.
    """
    tcol = table.column(target)
    gcol = table.column(group)
    if tcol.kind not in ("numeric", "integer"):
        raise SchemaError(f"impute target {target!r} must be numeric, is {tcol.kind}")
    means, _ = group_means(gcol.values, tcol.values)
    filled = 0
    out = []
    for g, v in zip(gcol.values, tcol.values):
        if v is None and g in means:
            out.append(means[g])
            filled += 1
        else:
            out.append(float(v) if v is not None else None)
    if report is not None:
        report.add("impute_group_mean", target, filled, f"group={group}")
    return table.with_column(target, Column("numeric", tuple(out)))


def impute_global_median(
    table: Table,
    target: str,
    report: StageReport | None = None,
) -> Table:
    """Fill every remaining missing cell with the column median."""
    tcol = table.column(target)
    if tcol.kind not in ("numeric", "integer"):
        raise SchemaError(f"impute target {target!r} must be numeric, is {tcol.kind}")
    if tcol.n_missing == len(tcol):
        raise EmptyInputError(f"impute_global_median: {target!r} has no non-missing value")
    med = quantile(tcol.values, 0.5)
    filled = sum(1 for v in tcol.values if v is None)
    out = tuple(float(v) if v is not None else med for v in tcol.values)
    if report is not None:
        report.add("impute_global_median", target, filled, f"median={med!r}")
    return table.with_column(target, Column("numeric", tuple(out)))


def knn_impute_geo(
    table: Table,
    target: str,
    lat: str = "latitude",
    lon: str = "longitude",
    k: int = DEFAULT_KNN_K,
    warn_radius_km: float = DEFAULT_WARN_RADIUS_KM,
    report: StageReport | None = None,
) -> Table:
    """Fill missing target cells with the mean over the k geodesically
    nearest rows that do have the target.

    Fewer than k donors: all available donors are used and flagged. The max
    donor distance per fill is tracked; fills whose farthest donor exceeds
    warn_radius_km are flagged in the report.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tcol = table.column(target)
    lats = table.values(lat)
    lons = table.values(lon)
    donors = [
        (i, lats[i], lons[i], tcol.values[i])
        for i in range(table.n_rows)
        if tcol.values[i] is not None and lats[i] is not None and lons[i] is not None
    ]
    missing_rows = [i for i, v in enumerate(tcol.values) if v is None]
    if missing_rows and not donors:
        raise EmptyInputError(f"knn_impute_geo: no donors with non-missing {target!r}")

    out = [float(v) if v is not None else None for v in tcol.values]
    short = 0
    far = 0
    max_used_km = 0.0
    for i in missing_rows:
        if lats[i] is None or lons[i] is None:
            continue
        here = GeoPoint(lats[i], lons[i])
        ranked = sorted(
            ((haversine_km(here, GeoPoint(dlat, dlon)), j, val) for j, dlat, dlon, val in donors),
            key=lambda t: (t[0], t[1]),
        )
        chosen = ranked[:k]
        if len(chosen) < k:
            short += 1
        farthest = chosen[-1][0]
        max_used_km = max(max_used_km, farthest)
        if farthest > warn_radius_km:
            far += 1
        out[i] = sum(val for _, _, val in chosen) / len(chosen)
    if report is not None:
        flags = [f"k={k}", f"max_donor_km={max_used_km:.3f}"]
        if short:
            flags.append(f"short_of_donors={short}")
        if far:
            flags.append(f"beyond_{warn_radius_km}km={far}")
        report.add("knn_impute_geo", target, len(missing_rows), ";".join(flags))
    return table.with_column(target, Column("numeric", tuple(out)))


def fill_calendar_gap(
    calendar: Table,
    gap: GapSpec,
    report: StageReport | None = None,
) -> Table:
    """Backfill every (listing, gap date) with the listing's historical
    day-of-week mean price, falling back to the listing's overall mean.

    Listings with no priced history at all are excluded. Existing rows inside
    the gap are left as-is. Output is sorted by (listing_id, date).
    """
    if calendar.n_rows == 0:
        raise EmptyInputError("fill_calendar_gap on an empty calendar")
    if calendar.column("price").kind not in ("numeric", "integer"):
        raise SchemaError("fill_calendar_gap needs a numeric price column; clean currency first")
    ids = calendar.values("listing_id")
    dates = calendar.values("date")
    prices = calendar.values("price")

    dated = [lid is not None and d is not None for lid, d in zip(ids, dates)]
    existing = {(lid, d) for lid, d, ok in zip(ids, dates, dated) if ok}
    dow_mean, _ = group_means(
        ((lid, d.weekday()) if ok else None for lid, d, ok in zip(ids, dates, dated)), prices
    )
    listing_mean, _ = group_means((lid if ok else None for lid, ok in zip(ids, dated)), prices)

    new_rows: list[tuple] = []
    fallback = 0
    for lid in sorted(listing_mean):
        for d in gap.dates():
            if (lid, d) in existing:
                continue
            price = dow_mean.get((lid, d.weekday()))
            if price is None:
                price = listing_mean[lid]
                fallback += 1
            new_rows.append((lid, d, price))

    id_out = list(ids) + [r[0] for r in new_rows]
    date_out = list(dates) + [r[1] for r in new_rows]
    price_out = [float(p) if p is not None else None for p in prices]
    price_out += [r[2] for r in new_rows]

    data: dict[str, tuple[str, list]] = {}
    for name, col in zip(calendar.names, calendar.cols):
        if name == "listing_id":
            data[name] = (col.kind, id_out)
        elif name == "date":
            data[name] = (col.kind, date_out)
        elif name == "price":
            data[name] = ("numeric", price_out)
        else:
            data[name] = (col.kind, list(col.values) + [None] * len(new_rows))
    merged = Table.from_dict(data)

    order = sorted(
        range(merged.n_rows),
        key=lambda i: (
            merged.values("listing_id")[i] is None,
            merged.values("listing_id")[i] or 0,
            merged.values("date")[i] is None,
            merged.values("date")[i] or _dt.date.min,
        ),
    )
    out = merged.take(order)
    if report is not None:
        report.add(
            "fill_calendar_gap",
            "price",
            len(new_rows),
            f"gap={gap.start.isoformat()}..{gap.end.isoformat()};overall_mean_fallbacks={fallback}",
        )
    return out
