"""One test per acceptance criterion, each at its stated tolerance.

The conftest hook prints a PASS/FAIL line per criterion in the terminal
summary; details recorded here end up in those lines.
"""

import datetime as dt
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import record_acceptance, run_cli_with_blas_threads
from shapley_oracle import ValueFunction, sampled_shapley
from rentlab.cli import stage_featurize, stage_gen, stage_wrangle
from rentlab.evaluation import (
    HyperParams,
    ModelConfig,
    compare_models,
    kfold_plan,
    mae,
    r_squared,
    rmse,
    train_test_split,
)
from rentlab.features import (
    FeatureMatrix,
    assemble_matrix,
    binarize_amenities,
    default_pois,
    expand_date,
    one_hot,
    poi_distance_features,
    standardize,
    top_k_amenities,
)
from rentlab.models import (
    LinearModel,
    elastic_net_objective,
    fit_elastic_net,
    fit_ols,
    fit_tree,
    soft_threshold,
)
from rentlab.select_explain import forward_select, shapley_values
from rentlab.sentiment import clean_text, lexicon_lookup, score
from rentlab.synthgen import (
    POSITIVE_TEMPLATES,
    GenConfig,
    generate,
    planted_outlier_indices,
)
from rentlab.tabular import Column, Table, clean_currency, inner_join
from rentlab.wrangle import iqr_fences, quantile, remove_outliers


def _fm(x, y, names=None):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    names = names or tuple(f"x{i}" for i in range(x.shape[1]))
    return FeatureMatrix(x, tuple(names), np.asarray(y, dtype=np.float64))


@pytest.mark.criterion("C1 elastic-net correctness")
def test_c1_elastic_net_correctness():
    start = time.time()
    rng = np.random.default_rng(101)

    # Ridge closed-form agreement <= 1e-6 on 50 random standardized 30x5 problems
    worst_ridge = 0.0
    for _ in range(50):
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        m = standardize(_fm(x, y))
        alpha = float(rng.uniform(0.01, 1.0))
        model = fit_elastic_net(m, alpha=alpha, l1_ratio=0.0, tol=1e-12, max_iter=50_000)
        xc = m.x - m.x.mean(axis=0)
        yc = m.y - m.y.mean()
        closed = np.linalg.solve(xc.T @ xc + 30 * alpha * np.eye(5), xc.T @ yc)
        worst_ridge = max(worst_ridge, float(np.max(np.abs(model.coefficients - closed))))
    assert worst_ridge <= 1e-6

    # 1-D lasso equals the soft-threshold closed form to 1e-9
    worst_lasso = 0.0
    for _ in range(20):
        rho = float(rng.uniform(-1.0, 1.0))
        alpha = float(rng.uniform(0.0, 0.8))
        x = np.tile([1.0, -1.0], 15)
        y = rho * x
        model = fit_elastic_net(_fm(x, y), alpha=alpha, l1_ratio=1.0, tol=1e-13)
        worst_lasso = max(worst_lasso, abs(model.coefficients[0] - soft_threshold(rho, alpha)))
    assert worst_lasso <= 1e-9

    # objective optimality under 200 random perturbations of radius 1e-2
    x = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    m = standardize(_fm(x, y))
    alpha, l1_ratio = 0.2, 0.5
    model = fit_elastic_net(m, alpha=alpha, l1_ratio=l1_ratio, tol=1e-12, max_iter=50_000)
    best = elastic_net_objective(m, model.intercept, model.coefficients, alpha, l1_ratio)
    for _ in range(200):
        delta = rng.normal(size=5)
        delta *= 1e-2 / np.linalg.norm(delta)
        assert best <= elastic_net_objective(
            m, model.intercept, model.coefficients + delta, alpha, l1_ratio
        ) + 1e-12

    elapsed = time.time() - start
    assert elapsed < 10.0
    record_acceptance(
        "C1 elastic-net correctness",
        f"ridge err {worst_ridge:.2e}, lasso err {worst_lasso:.2e}, {elapsed:.1f}s",
    )


@pytest.mark.criterion("C2 shapley axioms and Monte Carlo")
def test_c2_shapley_axioms_and_monte_carlo():
    start = time.time()
    rng = np.random.default_rng(202)
    p = 8

    # linear closed form + axioms at 1e-9 in exact mode
    beta = rng.normal(size=p)
    linear = LinearModel(0.5, beta)
    bg = rng.normal(size=(40, p))
    background = _fm(bg, np.zeros(40))
    instance = rng.normal(size=p)
    expl = shapley_values(linear, instance[None], background)
    closed_form = beta * (instance - bg.mean(axis=0))
    assert np.max(np.abs(expl.values[0] - closed_form)) <= 1e-9
    assert abs(expl.residuals()[0]) <= 1e-9

    # symmetry: a model of the sum of two clones attributes them equally
    clone_sum = LinearModel(0.0, np.array([1.0, 1.0, 0.3]))
    sym_bg = rng.normal(size=(20, 1))
    sym_bg = np.column_stack([sym_bg[:, 0], sym_bg[:, 0], rng.normal(size=20)])
    sym_inst = np.array([1.7, 1.7, -0.4])
    sym = shapley_values(clone_sum, sym_inst[None], _fm(sym_bg, np.zeros(20)))
    assert abs(sym.values[0, 0] - sym.values[0, 1]) <= 1e-9
    assert abs(sym.residuals()[0]) <= 1e-9

    # null player: a feature absent from every tree split gets exactly 0
    x_tree = rng.normal(size=(80, p))
    y_tree = 2.0 * x_tree[:, 0] * (x_tree[:, 1] > 0) + x_tree[:, 2]
    x_tree[:, 7] = 0.0  # constant: never splittable
    m_tree = _fm(x_tree, y_tree)
    tree = fit_tree(m_tree, HyperParams(max_depth=5))
    tree_background = m_tree.take(range(25))
    tree_expl = shapley_values(tree, x_tree[3:4], tree_background)
    assert abs(tree_expl.values[0, 7]) <= 1e-12
    assert abs(tree_expl.residuals()[0]) <= 1e-9

    # Monte Carlo at 2000 permutations within 0.05 * |prediction - base|
    sampled = sampled_shapley(ValueFunction(tree, x_tree[3], tree_background.x), 2000, 7)
    tol = 0.05 * (abs(tree_expl.predictions[0] - tree_expl.base_value) + 1e-9)
    mc_err = float(np.max(np.abs(sampled - tree_expl.values[0])))
    assert mc_err <= tol

    elapsed = time.time() - start
    assert elapsed < 30.0
    record_acceptance(
        "C2 shapley axioms and Monte Carlo",
        f"mc err {mc_err:.4f} <= tol {tol:.4f}, {elapsed:.1f}s",
    )


@pytest.mark.criterion("C3 IQR pipeline on planted outliers")
def test_c3_iqr_pipeline():
    cfg = GenConfig(
        n_listings=60,
        date_range=(dt.date(2023, 1, 1), dt.date(2023, 1, 30)),
        seed=303,
        noise_std=8.0,
        outlier_fraction=0.02,
    )
    _, calendar, _ = generate(cfg)
    planted = set(planted_outlier_indices(cfg).tolist())
    assert planted

    cal = calendar.with_column("price", clean_currency(calendar.column("price")))
    cal = cal.with_column("row", Column.of("integer", np.arange(cal.n_rows)))
    filtered = remove_outliers(cal, "price", 0.5)

    survivors = set(filtered.cells("row"))
    assert survivors.isdisjoint(planted), "a planted outlier survived the fences"

    fences = iqr_fences(cal.column("price"), 0.5)
    for v in filtered.cells("price"):
        if v is not None:
            assert fences.lower <= v <= fences.upper

    # quantiles match the sort-based oracle to 1e-12 on 1000 random vectors
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        values = rng.uniform(0.0, 500.0, size=n)
        q = float(rng.uniform(0.0, 1.0))
        ours = quantile(Column.of("numeric", values), q)
        oracle = float(np.percentile(values, q * 100.0))
        worst = max(worst, abs(ours - oracle))
    assert worst <= 1e-12
    record_acceptance(
        "C3 IQR pipeline on planted outliers",
        f"{len(planted)} planted removed, quantile err {worst:.1e}",
    )


NEGATION_SUITE = [
    ("great", "not great"),
    ("awesome", "not awesome"),
    ("wonderful", "not wonderful"),
    ("amazing", "not amazing"),
    ("excellent", "not excellent"),
    ("perfect", "not perfect"),
    ("lovely", "not lovely"),
    ("fantastic", "not fantastic"),
    ("beautiful", "not beautiful"),
    ("superb", "not superb"),
    ("delightful", "not delightful"),
    ("comfortable", "not comfortable"),
    ("clean", "not clean"),
    ("charming", "never charming"),
    ("friendly", "never friendly"),
    ("helpful", "never helpful"),
    ("spotless", "never spotless"),
    ("gorgeous", "never gorgeous"),
    ("peaceful", "never peaceful"),
    ("cozy", "never cozy"),
    ("pleasant", "no pleasant vibe", "pleasant vibe"),
    ("recommend", "cannot recommend"),
    ("enjoyable", "not enjoyable"),
    ("impressive", "not impressive"),
    ("relaxing", "not relaxing"),
    ("terrible", "not terrible"),
    ("awful", "not awful"),
    ("dirty", "not dirty"),
    ("horrible", "not horrible"),
    ("disgusting", "not disgusting"),
    ("rude", "not rude"),
    ("filthy", "not filthy"),
    ("broken", "not broken"),
    ("noisy", "not noisy"),
    ("miserable", "not miserable"),
    ("dreadful", "not dreadful"),
    ("nasty", "not nasty"),
    ("gloomy", "never gloomy"),
    ("disappointing", "never disappointing"),
    ("uncomfortable", "never uncomfortable"),
    ("unpleasant", "never unpleasant"),
    ("awkward", "never awkward"),
    ("dull", "never dull"),
    ("grim", "never grim"),
    ("shabby", "not shabby"),
    ("smelly", "not smelly"),
    ("damp", "not damp"),
    ("dated", "not dated"),
    ("cramped", "not cramped"),
    ("lousy", "not lousy"),
]


@pytest.mark.criterion("C4 sentiment fixtures, planted reviews, negation")
def test_c4_sentiment(lexicon):
    # dictionary fixtures, exact
    assert lexicon_lookup("Awesome", lexicon) == 1.8
    assert lexicon_lookup("Tragedy", lexicon) == -3.4
    assert lexicon_lookup("Insane", lexicon) == -1.7
    assert lexicon_lookup("Flattery", lexicon) == 0.4
    assert lexicon_lookup("Stealthily", lexicon) == 0.1
    assert lexicon_lookup("Amazing", lexicon) == 1.8

    # single-word compound 1.8/sqrt(18.24) to 1e-3
    s = score("awesome", lexicon)
    assert s.compound == pytest.approx(1.8 / math.sqrt(18.24), abs=1e-3)

    # planted templates classify with >= 99% sign accuracy
    cfg = GenConfig(
        n_listings=150,
        date_range=(dt.date(2023, 1, 1), dt.date(2023, 1, 10)),
        seed=404,
        positive_review_rate=0.5,
        max_reviews_per_listing=6,
    )
    _, _, reviews = generate(cfg)
    positives = set(POSITIVE_TEMPLATES)
    total, correct = 0, 0
    for comment in reviews.cells("comments"):
        expected = 1 if comment in positives else -1
        compound = score(clean_text(comment), lexicon).compound
        got = 1 if compound > 0.05 else (-1 if compound < -0.05 else 0)
        total += 1
        correct += got == expected
    accuracy = correct / total
    assert total >= 300
    assert accuracy >= 0.99

    # negation flips the sign on the 50-case suite
    assert len(NEGATION_SUITE) == 50
    for case in NEGATION_SUITE:
        plain, negated = case[0], case[1]
        base = score(clean_text(case[2] if len(case) > 2 else plain), lexicon).compound
        flipped = score(clean_text(negated), lexicon).compound
        assert base != 0.0
        assert flipped * base < 0, (plain, negated)
    record_acceptance(
        "C4 sentiment fixtures, planted reviews, negation",
        f"template accuracy {accuracy:.4f} on {total} reviews",
    )


@pytest.mark.criterion("C5 ensemble beats linear on nonlinear data")
def test_c5_qualitative_model_ordering():
    start = time.time()
    cfg = GenConfig(
        n_listings=68,
        date_range=(dt.date(2023, 2, 1), dt.date(2023, 4, 15)),
        seed=29,
        weekend_median=185.0,
        peak_uplift=0.4,
        noise_std=10.0,
        true_coefficients={"bedrooms": 10.0, "accommodates": 5.0, "Wifi": 8.0},
        interaction_coef=120.0,
    )
    listings, calendar, _ = generate(cfg)
    assert calendar.n_rows >= 5000

    cal = calendar.with_column("price", clean_currency(calendar.column("price")))
    cal = Table(
        ("listing_id", "date", "price"),
        (cal.column("listing_id"), cal.column("date"), cal.column("price")),
    )
    cal = expand_date(cal)
    lst, _ = poi_distance_features(listings, default_pois())
    lst = binarize_amenities(lst, top_k_amenities(lst, 15))
    lst = one_hot(lst, "room_type")
    joined = inner_join(cal, lst, "listing_id", "id")

    feature_cols = [
        name
        for name, col in zip(joined.names, joined.cols)
        if name not in ("price", "id", "listing_id", "host_id")
        and col.kind in ("numeric", "integer", "boolean")
        and col.n_missing == 0
        and len(set(col.values)) > 1
    ]
    m = assemble_matrix(joined, "price", feature_cols)
    train_rows, test_rows = train_test_split(m.n_rows, 0.8, seed=1)
    linear_hp = HyperParams(alpha=0.001)
    forest_hp = HyperParams(n_trees=20, max_depth=10)
    gbm_hp = HyperParams(n_rounds=60, learning_rate=0.1, max_depth=3)
    reports = compare_models(
        m,
        train_rows,
        test_rows,
        [
            ModelConfig("lasso", linear_hp, seed=3),
            ModelConfig("ridge", linear_hp, seed=3),
            ModelConfig("elastic", linear_hp, seed=3),
            ModelConfig("forest", forest_hp, seed=3),
            ModelConfig("gbm", gbm_hp, seed=3),
        ],
    )
    by_name = {r.model_name: r.r_squared for r in reports}
    best_linear = max(by_name["lasso"], by_name["ridge"], by_name["elastic"])
    assert by_name["forest"] >= best_linear + 0.05
    assert by_name["gbm"] >= best_linear + 0.03

    elapsed = time.time() - start
    assert elapsed < 60.0
    record_acceptance(
        "C5 ensemble beats linear on nonlinear data",
        f"forest +{by_name['forest'] - best_linear:.3f}, gbm +{by_name['gbm'] - best_linear:.3f}, "
        f"n={calendar.n_rows}, {elapsed:.1f}s",
    )


@pytest.mark.criterion("C6 forward selection recovers true support")
def test_c6_forward_selection_support_recovery():
    informative = {"x0", "x1", "x2"}
    noise_features = {f"x{i}" for i in range(3, 10)}
    worst_extra = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=(800, 10))
        y = 10 * x[:, 0] + 7 * x[:, 1] + 5 * x[:, 2] + rng.normal(0, 1.0, size=800)
        chosen = forward_select(
            _fm(x, y), max_features=4, min_rel_improvement=0.01, seed=seed
        )
        chosen_set = set(chosen)
        assert informative <= chosen_set, f"seed {seed}: informative not recovered: {chosen}"
        extra = len(chosen_set & noise_features)
        worst_extra = max(worst_extra, extra)
        assert extra <= 1, f"seed {seed}: too many noise features: {chosen}"

    # exhaustive subset oracle for subsets of size <= 2
    rng = np.random.default_rng(77)
    x = rng.normal(size=(120, 3))
    y = x[:, 0] + 0.1 * x[:, 2] + rng.normal(0, 0.05, size=120)
    m = _fm(x, y)
    seed = 4
    chosen = forward_select(m, max_features=2, min_rel_improvement=1e-4, seed=seed)
    train, val = (m.take(rows) for rows in train_test_split(m.n_rows, 0.8, seed))

    def val_mse(cols):
        model = fit_ols(train.select(list(cols)))
        err = val.select(list(cols)).x @ model.coefficients + model.intercept - val.y
        return float(err @ err) / val.n_rows

    best_single = min(m.feature_names, key=lambda f: val_mse([f]))
    best_pair = min(
        ((a, b) for a in m.feature_names for b in m.feature_names if a < b),
        key=lambda p: val_mse(list(p)),
    )
    assert chosen[0] == best_single
    assert set(chosen[:2]) == set(best_pair) == {"x0", "x2"}
    record_acceptance(
        "C6 forward selection recovers true support",
        f"20 seeds clean, worst noise admissions {worst_extra}",
    )


@pytest.mark.criterion("C7 noiseless end-to-end coefficient recovery")
def test_c7_noiseless_recovery(tmp_path):
    cfg = GenConfig(
        n_listings=120,
        date_range=(dt.date(2023, 1, 1), dt.date(2023, 1, 30)),
        seed=41,
        weekend_median=155.0,
        peak_uplift=0.0,
        noise_std=0.0,
        interaction_coef=0.0,
        true_coefficients={
            "bedrooms": 30.0,
            "accommodates": 10.0,
            "beds": 5.0,
            "Wifi": 8.0,
            "Pool": 15.0,
        },
    )
    out = str(tmp_path)
    raw = stage_gen(cfg, out)
    listings, calendar = stage_wrangle(raw["listings"], raw["calendar"], out)
    m = stage_featurize(listings, calendar, os.path.join(out, "features.csv"))
    model = fit_ols(m)
    by_name = dict(zip(model.feature_names, model.coefficients))
    worst = 0.0
    for name, coef in cfg.true_coefficients.items():
        assert name in by_name, f"feature {name} missing from the pipeline matrix"
        err = abs(by_name[name] - coef)
        worst = max(worst, err)
        assert err <= 1e-3, f"{name}: recovered {by_name[name]}, true {coef}"
    assert abs(model.intercept - cfg.weekday_median) <= 1e-3
    others = max(abs(c) for n, c in by_name.items() if n not in cfg.true_coefficients)
    assert others <= 1e-3
    record_acceptance(
        "C7 noiseless end-to-end coefficient recovery",
        f"max coefficient error {worst:.2e}",
    )


@pytest.mark.criterion("C8 full-run determinism and thread invariance")
def test_c8_run_determinism(tmp_path):
    config = {
        "version": 1,
        "seed": 99,
        "output_dir": str(tmp_path / "a"),
        "generator": {
            "n_listings": 16,
            "date_range": ["2023-01-01", "2023-01-12"],
            "noise_std": 6.0,
            "outlier_fraction": 0.01,
        },
        "features": {"amenity_k": 8},
        "models": {
            "families": ["lasso", "ridge", "elastic", "forest", "gbm"],
            "hyperparams": {"n_trees": 6, "n_rounds": 8, "max_depth": 4},
        },
        "eval": {"cv_k": 3},
        "explain": {"top": 8, "rows": 3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    # one and two BLAS threads, each run in its own process
    run_cli_with_blas_threads(1, "run", "--config", str(cfg_path))
    run_cli_with_blas_threads(2, "run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "b"))

    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between 1 and 2 BLAS threads"
    record_acceptance(
        "C8 full-run determinism and thread invariance",
        f"{len(names)} artifacts byte-identical at 1 and 2 BLAS threads",
    )


@pytest.mark.criterion("C9 metric identities and fold partitions")
def test_c9_metric_identities():
    rng = np.random.default_rng(909)

    # rmse >= mae on 10^4 random vector pairs
    for _ in range(10_000):
        n = int(rng.integers(1, 12))
        y = rng.normal(scale=100, size=n)
        yhat = rng.normal(scale=100, size=n)
        assert rmse(y, yhat) >= mae(y, yhat) - 1e-12

    # R^2 of the mean predictor is exactly 0
    for _ in range(100):
        y = rng.normal(size=int(rng.integers(2, 40)))
        if np.ptp(y) == 0:
            continue
        mean_pred = np.full(y.shape, y.mean())
        assert r_squared(y, mean_pred) == 0.0

    # 5-fold plans partition with spread <= 1 for 100 random (n, seed)
    for _ in range(100):
        n = int(rng.integers(5, 500))
        seed = int(rng.integers(0, 2**31 - 1))
        fold = kfold_plan(n, 5, seed)
        sizes = np.bincount(fold, minlength=5)
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1
        seen = sorted(i for f in range(5) for i in np.flatnonzero(fold == f))
        assert seen == list(range(n))
    record_acceptance(
        "C9 metric identities and fold partitions",
        "rmse>=mae on 1e4 pairs, mean-predictor R2 == 0, 100 partitions clean",
    )
