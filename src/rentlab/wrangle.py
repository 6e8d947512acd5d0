"""Outlier removal, missing-value imputation, and calendar gap backfill.

All operations are pure table-in/table-out; optional entries are appended to a
StageReport so the CLI can emit the operation/column/rows_affected CSV.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

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

    def contains(self, v):
        """Whether v, a number or an array, is within the fences."""
        return (self.lower <= v) & (v <= self.upper)


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


def quantile(column: Column, q: float) -> float:
    """Linear-interpolation quantile at position (n-1)*q of a numeric or
    integer column, missing excluded.

    A non-finite value (nan, +-inf) raises ValueError naming it.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    # stable, as list.sort is, so that of 0.0 and -0.0 the first stays first
    xs = np.sort(column.values[~column.missing], kind="stable").tolist()
    for v in xs:
        if not math.isfinite(v):
            raise ValueError(f"quantile of non-finite input value {v!r}")
    if not xs:
        raise EmptyInputError("quantile of all-missing input")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def iqr_fences(column: Column, multiplier: float = DEFAULT_IQR_MULTIPLIER) -> Fences:
    """Fences from the 25th/75th percentiles of the non-missing values."""
    if multiplier < 0:
        raise ValueError(f"multiplier must be >= 0, got {multiplier}")
    q1 = quantile(column, 0.25)
    q3 = quantile(column, 0.75)
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
    fences = iqr_fences(column, multiplier)
    out = table.filter(column.missing | fences.contains(column.values))
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
    groups = gcol.cells()
    means, _ = group_means(groups, tcol)
    # each row's group mean, NaN for a group without one
    group_mean = np.fromiter(map(means.get, groups, repeat(math.nan)), dtype=np.float64, count=len(groups))
    filled = tcol.missing & ~np.isnan(group_mean)
    out = Column("numeric", np.where(tcol.missing, group_mean, tcol.values), tcol.missing & ~filled)
    if report is not None:
        report.add("impute_group_mean", target, int(filled.sum()), f"group={group}")
    return table.with_column(target, out)


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
    med = quantile(tcol, 0.5)
    out = Column.of("numeric", np.where(tcol.missing, med, tcol.values))
    if report is not None:
        report.add("impute_global_median", target, tcol.n_missing, f"median={med!r}")
    return table.with_column(target, out)


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
    tcol, lat_col, lon_col = (table.column(name) for name in (target, lat, lon))
    located = ~(lat_col.missing | lon_col.missing)
    lats, lons, values = (c.values.tolist() for c in (lat_col, lon_col, tcol))
    donors = [(i, lats[i], lons[i], values[i]) for i in np.flatnonzero(located & ~tcol.missing).tolist()]
    missing_rows = np.flatnonzero(tcol.missing).tolist()
    if missing_rows and not donors:
        raise EmptyInputError(f"knn_impute_geo: no donors with non-missing {target!r}")

    out = np.where(tcol.missing, math.nan, tcol.values)
    short = 0
    far = 0
    max_used_km = 0.0
    for i in np.flatnonzero(tcol.missing & located).tolist():
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
    return table.with_column(target, Column("numeric", out, tcol.missing & ~located))


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
    ids, dates = calendar.cells("listing_id"), calendar.cells("date")
    prices = calendar.column("price")

    dated = [lid is not None and d is not None for lid, d in zip(ids, dates)]
    existing = {(lid, d) for lid, d, ok in zip(ids, dates, dated) if ok}
    dow_mean, _ = group_means(
        ((lid, d.weekday()) if ok else None for lid, d, ok in zip(ids, dates, dated)), prices
    )
    listing_mean, _ = group_means((lid if ok else None for lid, ok in zip(ids, dated)), prices)

    new: dict[str, list] = {"listing_id": [], "date": [], "price": []}
    fallback = 0
    for lid in sorted(listing_mean):
        for d in gap.dates():
            if (lid, d) in existing:
                continue
            price = dow_mean.get((lid, d.weekday()))
            if price is None:
                price = listing_mean[lid]
                fallback += 1
            for name, cell in zip(new, (lid, d, price)):
                new[name].append(cell)

    n_new = len(new["date"])
    merged = Table.from_dict({
        name: ("numeric" if name == "price" else col.kind, col.cells() + new.get(name, [None] * n_new))
        for name, col in zip(calendar.names, calendar.cols)
    })
    ids, dates = ids + new["listing_id"], dates + new["date"]
    order = sorted(
        range(merged.n_rows),
        key=lambda i: (ids[i] is None, ids[i] or 0, dates[i] is None, dates[i] or _dt.date.min),
    )
    out = merged.take(order)
    if report is not None:
        report.add(
            "fill_calendar_gap",
            "price",
            n_new,
            f"gap={gap.start.isoformat()}..{gap.end.isoformat()};overall_mean_fallbacks={fallback}",
        )
    return out
