import datetime as dt

import numpy as np
import pytest

from rentlab.sentiment import classify_compound, clean_text, score
from rentlab.synthgen import (
    NEGATIVE_TEMPLATES,
    POSITIVE_TEMPLATES,
    GenConfig,
    dow_month_base,
    generate,
    ground_truth,
    planted_missing_indices,
    planted_outlier_indices,
)
from rentlab.tabular import Column, clean_currency, write_csv
from rentlab.wrangle import iqr_fences


def _small_cfg(**overrides):
    base = dict(
        n_listings=20,
        date_range=(dt.date(2023, 1, 1), dt.date(2023, 1, 21)),
        seed=11,
        noise_std=5.0,
    )
    base.update(overrides)
    return GenConfig(**base)


class TestGenerate:
    def test_calendar_row_count(self):
        cfg = GenConfig(
            n_listings=100,
            date_range=(dt.date(2023, 1, 1), dt.date(2023, 12, 31)),
            seed=0,
        )
        _, calendar, _ = generate(cfg)
        assert calendar.n_rows == 36500

    def test_deterministic_byte_identical(self, tmp_path):
        cfg = _small_cfg()
        for run in ("a", "b"):
            listings, calendar, reviews = generate(cfg)
            write_csv(listings, tmp_path / f"l_{run}.csv")
            write_csv(calendar, tmp_path / f"c_{run}.csv")
            write_csv(reviews, tmp_path / f"r_{run}.csv")
        for stem in ("l", "c", "r"):
            assert (tmp_path / f"{stem}_a.csv").read_bytes() == (
                tmp_path / f"{stem}_b.csv"
            ).read_bytes()

    def test_required_schema_columns_present(self):
        listings, calendar, reviews = generate(_small_cfg())
        for col in ("id", "host_id", "latitude", "longitude", "room_type",
                    "accommodates", "bedrooms", "beds", "amenities"):
            assert col in listings.names
        for col in ("listing_id", "date", "price"):
            assert col in calendar.names
        for col in ("listing_id", "id", "date", "comments"):
            assert col in reviews.names

    def test_listing_ids_positive_and_unique(self):
        listings, _, _ = generate(_small_cfg())
        ids = listings.cells("id")
        assert all(i > 0 for i in ids)
        assert len(set(ids)) == len(ids)

    def test_noiseless_prices_equal_ground_truth(self):
        cfg = _small_cfg(noise_std=0.0)
        listings, calendar, _ = generate(cfg)
        prices = clean_currency(calendar.column("price"))
        by_id = {row["id"]: row for row in listings.rows()}
        ids, dates = calendar.cells("listing_id"), calendar.cells("date")
        for row in range(0, calendar.n_rows, 7):
            expected = ground_truth(cfg, by_id[ids[row]], dates[row])
            assert prices.values[row] == pytest.approx(expected, abs=1e-9)

    def test_weekend_median_exceeds_weekday(self):
        cfg = _small_cfg(n_listings=40, noise_std=3.0)
        _, calendar, _ = generate(cfg)
        prices = clean_currency(calendar.column("price"))
        weekday, weekend = [], []
        for d, p in zip(calendar.cells("date"), prices.cells()):
            if p is None:
                continue
            (weekend if d.weekday() in (4, 5) else weekday).append(p)
        assert float(np.median(weekend)) > float(np.median(weekday))


class TestGroundTruth:
    def test_same_dow_month_same_price(self):
        cfg = _small_cfg()
        listings, _, _ = generate(cfg)
        listing = listings.rows()[0]
        a = ground_truth(cfg, listing, dt.date(2023, 1, 3))
        b = ground_truth(cfg, listing, dt.date(2023, 1, 10))  # same weekday, month
        assert a == b

    def test_peak_month_exceeds_off_month(self):
        cfg = _small_cfg(peak_uplift=0.2)
        listings, _, _ = generate(cfg)
        listing = listings.rows()[0]
        march = ground_truth(cfg, listing, dt.date(2023, 3, 7))
        february = ground_truth(cfg, listing, dt.date(2023, 2, 7))  # same weekday
        assert march > february

    def test_zero_uplift_flat_across_months(self):
        cfg = _small_cfg(peak_uplift=0.0)
        listings, _, _ = generate(cfg)
        listing = listings.rows()[0]
        assert ground_truth(cfg, listing, dt.date(2023, 3, 7)) == ground_truth(
            cfg, listing, dt.date(2023, 2, 7)
        )

    def test_base_levels(self):
        cfg = _small_cfg()
        assert dow_month_base(cfg, 0, 1) == cfg.weekday_median
        assert dow_month_base(cfg, 4, 1) == cfg.weekend_median
        assert dow_month_base(cfg, 0, 3) == cfg.weekday_median * (1 + cfg.peak_uplift)


class TestPlantedOutliers:
    def test_planted_outliers_outside_clean_fences(self):
        cfg = _small_cfg(n_listings=50, outlier_fraction=0.02, noise_std=8.0)
        _, calendar, _ = generate(cfg)
        prices = clean_currency(calendar.column("price")).cells()
        outliers = set(planted_outlier_indices(cfg).tolist())
        assert outliers
        clean = [p for i, p in enumerate(prices) if p is not None and i not in outliers]
        fences = iqr_fences(Column.of("numeric", clean), 0.5)
        for i in outliers:
            assert prices[i] is not None
            assert not fences.contains(prices[i])

    def test_missing_and_outlier_rows_disjoint(self):
        cfg = _small_cfg(outlier_fraction=0.05, missing_fraction=0.05)
        out = set(planted_outlier_indices(cfg).tolist())
        miss = set(planted_missing_indices(cfg).tolist())
        assert out.isdisjoint(miss)

    def test_planted_missing_cells_are_missing(self):
        cfg = _small_cfg(missing_fraction=0.05)
        _, calendar, _ = generate(cfg)
        prices = calendar.cells("price")
        for i in planted_missing_indices(cfg):
            assert prices[int(i)] is None

    def test_no_planting_by_default(self):
        cfg = _small_cfg()
        assert planted_outlier_indices(cfg).size == 0
        assert planted_missing_indices(cfg).size == 0


class TestReviewTemplates:
    def test_positive_pool_scores_positive(self, lexicon):
        for template in POSITIVE_TEMPLATES:
            s = score(clean_text(template), lexicon)
            assert s.compound > 0.05, template
            assert classify_compound(s.compound) == "positive"

    def test_negative_pool_scores_negative(self, lexicon):
        for template in NEGATIVE_TEMPLATES:
            s = score(clean_text(template), lexicon)
            assert s.compound < -0.05, template
            assert classify_compound(s.compound) == "negative"

    def test_reviews_drawn_from_pools(self):
        _, _, reviews = generate(_small_cfg(n_listings=30))
        pools = set(POSITIVE_TEMPLATES) | set(NEGATIVE_TEMPLATES)
        assert reviews.n_rows > 0
        for comment in reviews.cells("comments"):
            assert comment in pools


class TestGenConfigValidation:
    def test_bad_date_range(self):
        with pytest.raises(ValueError):
            GenConfig(date_range=(dt.date(2023, 2, 1), dt.date(2023, 1, 1)))

    @pytest.mark.parametrize("key", ["weekday_median", "weekend_median"])
    def test_nonpositive_median_rejected(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be > 0"):
            GenConfig(**{key: 0.0})

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            GenConfig(outlier_fraction=0.5)
        with pytest.raises(ValueError):
            GenConfig(missing_fraction=0.9)

    def test_negative_uplift_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(peak_uplift=-0.1)
