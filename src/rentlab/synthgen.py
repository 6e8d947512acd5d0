"""Synthetic listings/calendar/reviews generator with a known price function.

Stands in for the paywalled market data: the noiseless price of every
(listing, date) pair is exposed through ground_truth so end-to-end tests have
an exact oracle. The price model is additive in the configured coefficients
plus one bedrooms-x-proximity interaction, so linear models underfit and tree
ensembles win by construction; setting interaction_coef=0, equal medians, and
peak_uplift=0 yields a purely linear generator.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field

import numpy as np

from .features import GeoPoint, haversine_km, parse_amenities
from .jsonfields import at_least
from .tabular import Table

AUSTIN_CENTER = (30.2672, -97.7431)
INTERACTION_RANGE_KM = 3.0
OUTLIER_HIGH_FACTOR = 25.0
OUTLIER_LOW_FACTOR = 0.02

ROOM_TYPES = ("Entire home/apt", "Private room", "Shared room")
ROOM_TYPE_WEIGHTS = (0.70, 0.25, 0.05)
PROPERTY_TYPES = ("Entire home", "Entire guesthouse", "Entire condo", "Private room in home")

AMENITY_POOL = (
    ("Wifi", 0.95), ("Kitchen", 0.90), ("Air conditioning", 0.85),
    ("Heating", 0.80), ("Smoke alarm", 0.80), ("Essentials", 0.75),
    ("Hangers", 0.70), ("Hair dryer", 0.65), ("Iron", 0.60), ("TV", 0.60),
    ("Washer", 0.55), ("Dryer", 0.50), ("Dishes and silverware", 0.50),
    ("Carbon monoxide alarm", 0.50), ("Refrigerator", 0.45), ("Microwave", 0.45),
    ("Bed linens", 0.40), ("Coffee maker", 0.40), ("Cooking basics", 0.40),
    ("Self check-in", 0.35), ("Free parking", 0.35), ("Dedicated workspace", 0.30),
    ("Oven", 0.30), ("First aid kit", 0.30), ("Fire extinguisher", 0.30),
    ("Dishwasher", 0.25), ("Private entrance", 0.25), ("Pool", 0.20),
    ("Backyard", 0.20), ("Patio", 0.20), ("Hot tub", 0.15), ("Pets allowed", 0.15),
    ("BBQ grill", 0.15), ("Gym", 0.10), ("Crib", 0.10),
)

POSITIVE_TEMPLATES = (
    "Great stay, the host was wonderful and everything was perfect.",
    "Absolutely loved this place, clean and comfortable with a fantastic location!",
    "Amazing home, super friendly host, highly recommend!",
    "Beautiful house with excellent amenities, we enjoyed every minute.",
    "Charming spot in a peaceful neighborhood, a wonderful experience overall.",
    "Awesome location, spotless rooms, and a very helpful host.",
    "Lovely place, great value, and the check-in was smooth and easy.",
    "Fantastic views and a cozy, relaxing vibe. We will happily return!",
    "Everything was delightful, the host was gracious and responsive.",
    "Superb stay, impeccably clean and close to everything we wanted.",
    "The best Airbnb we have stayed in, truly outstanding hospitality.",
    "Comfortable beds, gorgeous patio, and a warm welcome. Perfect weekend!",
)

NEGATIVE_TEMPLATES = (
    "Terrible experience, the room was dirty and the host was rude.",
    "Awful place, broken furniture and a horrible smell everywhere.",
    "Disappointing stay, a noisy street and a filthy bathroom.",
    "The worst Airbnb ever, a dishonest listing and miserable service.",
    "Dreadful apartment, stained sheets and an unhelpful host.",
    "Bad value, the photos were misleading and the kitchen was disgusting.",
    "Horrible checkin, the place was a mess and smelled like mold.",
    "Uncomfortable beds, annoying neighbors, and a grim bathroom.",
    "Frustrating stay, the heater was broken and the host ignored us.",
    "Nasty surprise: bugs in the kitchen and a damp, gloomy bedroom.",
)

REVIEWER_NAMES = (
    "Alex", "Jordan", "Taylor", "Casey", "Riley", "Morgan", "Jamie", "Avery",
    "Quinn", "Harper", "Rowan", "Skyler",
)

_STREAM_LISTINGS = 1
_STREAM_CALENDAR = 2
_STREAM_REVIEWS = 3
_STREAM_OUTLIERS = 4
_STREAM_MISSING = 5


def _default_coefficients() -> dict[str, float]:
    return {
        "bedrooms": 30.0,
        "accommodates": 10.0,
        "beds": 5.0,
        "Wifi": 8.0,
        "Pool": 15.0,
    }


# The most listing-nights (n_listings x the days of date_range) a calendar
# may have: 10^8 rows are gigabytes of CSV, far beyond any run here, and
# far inside numpy's array limits.
MAX_LISTING_NIGHTS = 10**8


@dataclass(frozen=True)
class GenConfig:
    n_listings: int = 100
    date_range: tuple[_dt.date, _dt.date] = (_dt.date(2023, 1, 1), _dt.date(2023, 3, 31))
    seed: int = 0
    weekday_median: float = 155.0
    weekend_median: float = 180.0
    peak_months: tuple[int, ...] = (3, 10)
    peak_uplift: float = 0.15
    noise_std: float = 10.0
    true_coefficients: dict[str, float] = field(default_factory=_default_coefficients)
    interaction_coef: float = 40.0
    outlier_fraction: float = 0.0
    missing_fraction: float = 0.0
    positive_review_rate: float = 0.8
    max_reviews_per_listing: int = 6

    def __post_init__(self):
        at_least(self, n_listings=1, seed=0, peak_uplift=0, noise_std=0, max_reviews_per_listing=0)
        start, end = self.date_range
        if start > end:
            raise ValueError(f"date_range start {start} after end {end}")
        if self.n_listings * self.n_days > MAX_LISTING_NIGHTS:
            raise ValueError(f"n_listings {self.n_listings} over {self.n_days} days exceeds "
                             f"MAX_LISTING_NIGHTS ({MAX_LISTING_NIGHTS:,} listing-nights)")
        if not self.weekday_median > 0:
            raise ValueError(f"weekday_median must be > 0, got {self.weekday_median}")
        if not self.weekend_median > 0:
            raise ValueError(f"weekend_median must be > 0, got {self.weekend_median}")
        if not 0.0 <= self.outlier_fraction < 0.3:
            raise ValueError("outlier_fraction must be in [0, 0.3)")
        if not 0.0 <= self.missing_fraction < 0.5:
            raise ValueError("missing_fraction must be in [0, 0.5)")
        if not 0.0 <= self.positive_review_rate <= 1.0:
            raise ValueError("positive_review_rate must be in [0, 1]")

    @property
    def n_days(self) -> int:
        return (self.date_range[1] - self.date_range[0]).days + 1

    def dates(self) -> list[_dt.date]:
        start = self.date_range[0]
        return [start + _dt.timedelta(days=i) for i in range(self.n_days)]


def _rng(cfg: GenConfig, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, stream)))


def dow_month_base(cfg: GenConfig, dow: int, month: int) -> float:
    """Calibrated base level: weekend (Fri/Sat) vs weekday median, with the
    peak-month uplift multiplied in."""
    base = cfg.weekend_median if dow in (4, 5) else cfg.weekday_median
    if month in cfg.peak_months:
        base *= 1.0 + cfg.peak_uplift
    return base


def _feature_value(listing: dict, name: str) -> float:
    value = listing.get(name)
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    for col in ("room_type", "property_type"):
        prefix = col + "_"
        if name.startswith(prefix):
            return 1.0 if listing.get(col) == name[len(prefix):] else 0.0
    return 1.0 if name in parse_amenities(listing.get("amenities")) else 0.0


def _proximity(listing: dict) -> float:
    d = haversine_km(
        GeoPoint(listing["latitude"], listing["longitude"]),
        GeoPoint(*AUSTIN_CENTER),
    )
    return math.exp(-d / INTERACTION_RANGE_KM)


def listing_price_term(cfg: GenConfig, listing: dict) -> float:
    """Date-independent part of the price: coefficients plus interaction."""
    total = 0.0
    for name, coef in cfg.true_coefficients.items():
        total += coef * _feature_value(listing, name)
    total += cfg.interaction_coef * listing.get("bedrooms", 0) * _proximity(listing)
    return total


def ground_truth(cfg: GenConfig, listing: dict, date: _dt.date) -> float:
    """Exact noiseless price for a generated listing row on a date."""
    return dow_month_base(cfg, date.weekday(), date.month) + listing_price_term(cfg, listing)


def _generate_listings(cfg: GenConfig) -> Table:
    rng = _rng(cfg, _STREAM_LISTINGS)
    n = cfg.n_listings
    n_hosts = max(1, n // 2)
    host_ids = rng.integers(0, n_hosts, size=n) + 500

    bedrooms = rng.integers(1, 6, size=n)
    beds = bedrooms + rng.integers(0, 3, size=n)
    accommodates = 2 * bedrooms + rng.integers(0, 4, size=n)
    room_types = rng.choice(len(ROOM_TYPES), size=n, p=ROOM_TYPE_WEIGHTS)
    property_types = rng.integers(0, len(PROPERTY_TYPES), size=n)
    lat = np.clip(AUSTIN_CENTER[0] + rng.normal(0.0, 0.05, size=n), -90.0, 90.0)
    lon = np.clip(AUSTIN_CENTER[1] + rng.normal(0.0, 0.05, size=n), -180.0, 180.0)
    superhost = rng.random(size=n) < 0.3
    instant = rng.random(size=n) < 0.5

    amen_draws = rng.random(size=(n, len(AMENITY_POOL)))
    amenities = []
    for i in range(n):
        inventory = [name for j, (name, prob) in enumerate(AMENITY_POOL) if amen_draws[i, j] < prob]
        amenities.append('["' + '", "'.join(inventory) + '"]' if inventory else "[]")

    rating = np.round(np.clip(rng.normal(4.6, 0.35, size=n), 1.0, 5.0), 2)
    location_score = np.round(np.clip(rng.normal(4.7, 0.3, size=n), 1.0, 5.0), 2)
    n_reviews = rng.integers(0, 300, size=n)
    reviews_pm = np.round(rng.random(size=n) * 5.0, 2)
    avail_30 = rng.integers(0, 31, size=n)
    avail_365 = rng.integers(30, 366, size=n)
    start_year = cfg.date_range[0].year
    host_since = [
        _dt.date(start_year - int(a), int(m), 1 + int(d))
        for a, m, d in zip(
            rng.integers(1, 8, size=n), rng.integers(1, 13, size=n), rng.integers(0, 28, size=n)
        )
    ]

    rating_cells = rating.tolist()
    location_cells = location_score.tolist()
    if cfg.missing_fraction > 0.0:
        n_miss = int(round(cfg.missing_fraction * n))
        for i in rng.choice(n, size=min(n_miss, n), replace=False):
            rating_cells[i] = None
        for i in rng.choice(n, size=min(n_miss, n), replace=False):
            location_cells[i] = None

    listing_rows = {
        "id": ("integer", np.arange(1000, 1000 + n)),
        "host_id": ("integer", host_ids),
        "host_since": ("date", host_since),
        "host_is_superhost": ("boolean", superhost),
        "neighbourhood_cleansed": ("text", [f"787{v:02d}" for v in rng.integers(1, 60, size=n).tolist()]),
        "latitude": ("numeric", lat),
        "longitude": ("numeric", lon),
        "property_type": ("text", [PROPERTY_TYPES[i] for i in property_types]),
        "room_type": ("text", [ROOM_TYPES[i] for i in room_types]),
        "accommodates": ("integer", accommodates),
        "bedrooms": ("integer", bedrooms),
        "beds": ("integer", beds),
        "amenities": ("text", amenities),
        "availability_30": ("integer", avail_30),
        "availability_365": ("integer", avail_365),
        "number_of_reviews": ("integer", n_reviews),
        "review_scores_rating": ("numeric", rating_cells),
        "review_scores_location": ("numeric", location_cells),
        "instant_bookable": ("boolean", instant),
        "reviews_per_month": ("numeric", reviews_pm),
    }
    return Table.from_dict(listing_rows)


def planted_outlier_indices(cfg: GenConfig) -> np.ndarray:
    """Row indices (into the generated calendar) that carry planted outliers."""
    n_rows = cfg.n_listings * cfg.n_days
    n_out = int(round(cfg.outlier_fraction * n_rows))
    if n_out == 0:
        return np.empty(0, dtype=np.int64)
    rng = _rng(cfg, _STREAM_OUTLIERS)
    return np.sort(rng.choice(n_rows, size=n_out, replace=False))


def planted_missing_indices(cfg: GenConfig) -> np.ndarray:
    """Calendar rows whose price cell is planted missing (never an outlier row)."""
    n_rows = cfg.n_listings * cfg.n_days
    n_miss = int(round(cfg.missing_fraction * n_rows))
    if n_miss == 0:
        return np.empty(0, dtype=np.int64)
    taken = set(planted_outlier_indices(cfg).tolist())
    pool = np.array([i for i in range(n_rows) if i not in taken], dtype=np.int64)
    rng = _rng(cfg, _STREAM_MISSING)
    return np.sort(rng.choice(pool, size=min(n_miss, pool.size), replace=False))


def _format_price(value: float) -> str:
    return f"${value!r}"


def _generate_calendar(cfg: GenConfig, listings: Table) -> Table:
    rng = _rng(cfg, _STREAM_CALENDAR)
    dates = cfg.dates()
    rows_per = len(dates)
    n_rows = cfg.n_listings * rows_per

    base_by_date = [dow_month_base(cfg, d.weekday(), d.month) for d in dates]
    # a row per listing and date, listing by listing
    terms = [listing_price_term(cfg, listing) for listing in listings.rows()]
    prices = np.add.outer(terms, base_by_date).ravel()
    if cfg.noise_std > 0.0:
        prices = prices + rng.normal(0.0, cfg.noise_std, size=n_rows)
    prices = np.maximum(prices, 1.0)

    available = rng.random(size=n_rows) < 0.6
    min_nights = rng.integers(1, 4, size=n_rows)

    out_idx = planted_outlier_indices(cfg)
    for rank, row in enumerate(out_idx):
        factor = OUTLIER_HIGH_FACTOR if rank % 2 == 0 else OUTLIER_LOW_FACTOR
        prices[row] *= factor

    cells: list[str | None] = [_format_price(float(p)) for p in prices]
    for row in planted_missing_indices(cfg):
        cells[row] = None

    return Table.from_dict(
        {
            "listing_id": ("integer", listings.column("id").values.repeat(rows_per)),
            "date": ("date", dates * cfg.n_listings),
            "available": ("boolean", available),
            "price": ("text", cells),
            "minimum_nights": ("integer", min_nights),
        }
    )


def _generate_reviews(cfg: GenConfig, listings: Table) -> Table:
    rng = _rng(cfg, _STREAM_REVIEWS)
    start, end = cfg.date_range
    span = (end - start).days + 1
    listing_ids, review_ids, dates, reviewer_ids, names, comments = [], [], [], [], [], []
    next_id = 10000
    for lid in listings.cells("id"):
        n_reviews = int(rng.integers(0, cfg.max_reviews_per_listing + 1))
        for _ in range(n_reviews):
            positive = rng.random() < cfg.positive_review_rate
            pool = POSITIVE_TEMPLATES if positive else NEGATIVE_TEMPLATES
            comments.append(pool[int(rng.integers(0, len(pool)))])
            listing_ids.append(lid)
            review_ids.append(next_id)
            next_id += 1
            dates.append(start + _dt.timedelta(days=int(rng.integers(0, span))))
            reviewer_ids.append(int(rng.integers(70000, 99999)))
            names.append(REVIEWER_NAMES[int(rng.integers(0, len(REVIEWER_NAMES)))])
    return Table.from_dict(
        {
            "listing_id": ("integer", listing_ids),
            "id": ("integer", review_ids),
            "date": ("date", dates),
            "reviewer_id": ("integer", reviewer_ids),
            "reviewer_name": ("text", names),
            "comments": ("text", comments),
        }
    )


def generate(cfg: GenConfig) -> tuple[Table, Table, Table]:
    """Deterministically generate (listings, calendar, reviews) tables."""
    listings = _generate_listings(cfg)
    calendar = _generate_calendar(cfg, listings)
    reviews = _generate_reviews(cfg, listings)
    return listings, calendar, reviews
