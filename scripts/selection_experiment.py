#!/usr/bin/env python3
"""Model comparison with and without forward selection on nonlinear synthetic
data: fits all five families on the full feature set, then again on the
forward-selected subset, and prints both metric tables.

Usage: python scripts/selection_experiment.py [seed]
"""

from __future__ import annotations

import datetime as dt
import sys

from rentlab.evaluation import HyperParams, ModelConfig, compare_models, train_test_split
from rentlab.features import (
    binarize_amenities,
    default_pois,
    expand_date,
    join_matrix,
    one_hot,
    poi_distance_features,
    top_k_amenities,
)
from rentlab.select_explain import forward_select
from rentlab.synthgen import GenConfig, generate
from rentlab.tabular import Table, clean_currency

FAMILIES = ("lasso", "ridge", "elastic", "forest", "gbm")


def build_matrix(seed: int):
    cfg = GenConfig(
        n_listings=68,
        date_range=(dt.date(2023, 2, 1), dt.date(2023, 4, 15)),
        seed=seed,
        weekend_median=185.0,
        peak_uplift=0.4,
        noise_std=10.0,
        true_coefficients={"bedrooms": 10.0, "accommodates": 5.0, "Wifi": 8.0},
        interaction_coef=120.0,
    )
    listings, calendar, _ = generate(cfg)
    cal = calendar.with_column("price", clean_currency(calendar.column("price")))
    cal = Table(
        ("listing_id", "date", "price"),
        (cal.column("listing_id"), cal.column("date"), cal.column("price")),
    )
    cal = expand_date(cal)
    lst, _ = poi_distance_features(listings, default_pois())
    lst = binarize_amenities(lst, top_k_amenities(lst, 15))
    lst = one_hot(lst, "room_type")
    return join_matrix(cal, lst, "listing_id", "id", "price")


def print_table(title: str, reports) -> None:
    print(f"\n{title}")
    header = "Metric".ljust(26) + "".join(name.rjust(10) for name in FAMILIES)
    print(header)
    rows = [
        ("R-Squared", [f"{r.r_squared:.3f}" for r in reports]),
        ("Mean Absolute Error", [f"{r.mae:.1f}" for r in reports]),
        ("Root Mean Squared Err", [f"{r.rmse:.1f}" for r in reports]),
    ]
    for label, cells in rows:
        print(label.ljust(26) + "".join(c.rjust(10) for c in cells))


def main(seed: int) -> int:
    m = build_matrix(seed)
    train_rows, test_rows = train_test_split(m.n_rows, 0.8, seed=1)
    linear_hp = HyperParams(alpha=0.001)
    forest_hp = HyperParams(n_trees=20, max_depth=10)
    gbm_hp = HyperParams(n_rounds=60, learning_rate=0.1, max_depth=3)
    per_family = {"forest": forest_hp, "gbm": gbm_hp}
    configs = [ModelConfig(f, per_family.get(f, linear_hp), seed=3) for f in FAMILIES]

    full = compare_models(m, train_rows, test_rows, configs)
    print_table(f"All {m.n_features} features", full)

    chosen = forward_select(m, max_features=20, min_rel_improvement=1e-3, seed=seed)
    selected = compare_models(m.select(chosen), train_rows, test_rows, configs)
    print_table(f"Forward-selected {len(chosen)} features", selected)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 29))
