import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rentlab.evaluation
from rentlab.errors import UndefinedMetricError
from rentlab.evaluation import (
    EvalReport,
    _derived_seed,
    HyperParams,
    ModelConfig,
    compare_models,
    cross_validate,
    kfold_plan,
    mae,
    r_squared,
    random_search,
    reports_to_doc,
    reports_to_table,
    rmse,
    train_test_split,
)
from rentlab.features import FeatureMatrix
from rentlab.models import fit_family, predict


def _fm(x, y, names=None):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    names = names or tuple(f"x{i}" for i in range(x.shape[1]))
    return FeatureMatrix(x, tuple(names), np.asarray(y, dtype=np.float64))


class TestMetrics:
    def test_rmse_identical_is_zero(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_rmse_hand_arithmetic(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_rmse_single_element_absolute_error(self):
        assert rmse([2.0], [5.0]) == 3.0

    def test_mae_identical_is_zero(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mae_hand_arithmetic(self):
        assert mae([0.0, 0.0], [3.0, 4.0]) == 3.5

    def test_mae_constant_offset(self):
        assert mae([1.0, 2.0, 3.0], [3.5, 4.5, 5.5]) == pytest.approx(2.5, abs=1e-12)

    def test_r2_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_r2_mean_predictor_zero(self):
        y = [1.0, 2.0, 3.0, 10.0]
        mean = sum(y) / len(y)
        assert r_squared(y, [mean] * 4) == 0.0

    def test_r2_worse_than_mean_negative(self):
        assert r_squared([1.0, 2.0, 3.0], [30.0, -10.0, 4.0]) < 0

    def test_r2_zero_variance_undefined(self):
        with pytest.raises(UndefinedMetricError):
            r_squared([5.0, 5.0], [5.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
                st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_rmse_dominates_mae(self, pairs):
        y = [a for a, _ in pairs]
        yhat = [b for _, b in pairs]
        assert rmse(y, yhat) >= mae(y, yhat) - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_metrics_invariant_under_permutation(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=17)
        yhat = rng.normal(size=17)
        perm = rng.permutation(17)
        assert rmse(y, yhat) == pytest.approx(rmse(y[perm], yhat[perm]), abs=1e-12)
        assert mae(y, yhat) == pytest.approx(mae(y[perm], yhat[perm]), abs=1e-12)
        assert r_squared(y, yhat) == pytest.approx(r_squared(y[perm], yhat[perm]), abs=1e-12)


class TestEvalReport:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            EvalReport("m", 0.5, mae=-1.0, rmse=1.0)
        with pytest.raises(ValueError):
            EvalReport("m", 0.5, mae=5.0, rmse=1.0)
        with pytest.raises(ValueError):
            EvalReport("m", 1.5, mae=1.0, rmse=2.0)

    def test_valid_report(self):
        rep = EvalReport("m", 0.9, mae=1.0, rmse=1.5)
        assert rep.rmse >= rep.mae


class TestTrainTestSplit:
    def test_80_20_of_ten(self):
        m = _fm(np.arange(10.0), np.arange(10.0))
        train, test = (m.take(rows) for rows in train_test_split(m.n_rows, 0.8, seed=0))
        assert train.n_rows == 8
        assert test.n_rows == 2

    def test_same_seed_identical(self):
        m = _fm(np.arange(10.0), np.arange(10.0))
        a_train, a_test = (m.take(rows) for rows in train_test_split(m.n_rows, 0.8, seed=5))
        b_train, b_test = (m.take(rows) for rows in train_test_split(m.n_rows, 0.8, seed=5))
        assert np.array_equal(a_train.x, b_train.x)
        assert np.array_equal(a_test.x, b_test.x)

    def test_partition_exhaustive_and_disjoint(self):
        m = _fm(np.arange(13.0), np.arange(13.0))
        train, test = (m.take(rows) for rows in train_test_split(m.n_rows, 0.7, seed=3))
        combined = sorted(train.y.tolist() + test.y.tolist())
        assert combined == list(np.arange(13.0))

    def test_degenerate_sizes_rejected(self):
        m = _fm(np.arange(10.0), np.arange(10.0))
        with pytest.raises(ValueError):
            train_test_split(m.n_rows, 0.0, seed=0)
        with pytest.raises(ValueError):
            train_test_split(_fm([1.0], [1.0]).n_rows, 0.5, seed=0)


def _reference_kfold_plan(n, k, seed):
    """The per-row fold assignment loop kfold_plan replaced: the seeded
    permutation cut into runs of base or base + 1 rows, larger runs first."""
    perm = np.random.default_rng(seed).permutation(n)
    assignments = [0] * n
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        for row in perm[start : start + size]:
            assignments[row] = fold
        start += size
    return assignments


class TestKfoldPlan:
    def test_ten_by_five(self):
        fold = kfold_plan(10, 5, seed=0)
        assert np.bincount(fold, minlength=5).tolist() == [2, 2, 2, 2, 2]

    def test_eleven_by_five_remainder(self):
        fold = kfold_plan(11, 5, seed=0)
        assert sorted(np.bincount(fold, minlength=5).tolist(), reverse=True) == [3, 2, 2, 2, 2]

    def test_every_row_exactly_once(self):
        fold = kfold_plan(17, 4, seed=2)
        assert fold.dtype == np.int64 and fold.shape == (17,)
        seen = [i for f in range(4) for i in np.flatnonzero(fold == f)]
        assert sorted(seen) == list(range(17))

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kfold_plan(3, 5, seed=0)
        with pytest.raises(ValueError):
            kfold_plan(10, 1, seed=0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_partition_property_random(self, n, seed):
        k = min(5, n)
        sizes = np.bincount(kfold_plan(n, k, seed), minlength=k)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_loop(self, data):
        n = data.draw(st.integers(min_value=2, max_value=500))
        k = data.draw(st.integers(min_value=2, max_value=min(n, 10)))
        seed = data.draw(st.integers(min_value=0, max_value=2**63 - 1))
        assert kfold_plan(n, k, seed).tolist() == _reference_kfold_plan(n, k, seed)


def _search_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = 2 * x[:, 0] - x[:, 1] + rng.normal(0, 0.2, size=n)
    return _fm(x, y)


class TestRandomSearch:
    def test_single_combination_returned(self):
        m = _search_data()
        best, score, trials = random_search(
            m, "ridge", {"alpha": [0.01]}, n_samples=1, k=3, seed=0
        )
        assert best.alpha == 0.01
        assert len(trials) == 1

    def test_exhaustive_when_samples_cover_grid(self):
        m = _search_data()
        grid = {"alpha": [0.001, 0.1, 10.0]}
        best, score, trials = random_search(m, "lasso", grid, n_samples=10, k=3, seed=0)
        assert len(trials) == 3
        assert {t.config.alpha for t in trials} == set(grid["alpha"])

    def test_same_seed_same_winner_and_trials(self):
        m = _search_data()
        grid = {"alpha": [0.001, 0.01, 0.1, 1.0], "l1_ratio": [0.2, 0.8]}
        a = random_search(m, "elastic", grid, n_samples=4, k=3, seed=9)
        b = random_search(m, "elastic", grid, n_samples=4, k=3, seed=9)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert [t.config for t in a[2]] == [t.config for t in b[2]]

    def test_winner_score_is_max_over_trials(self):
        m = _search_data(3)
        grid = {"alpha": [0.001, 0.01, 0.1, 1.0, 10.0]}
        best, score, trials = random_search(m, "ridge", grid, n_samples=5, k=4, seed=1)
        assert score == pytest.approx(max(t.r_squared for t in trials), abs=1e-12)

    def test_empty_grid_rejected(self):
        m = _search_data()
        with pytest.raises(ValueError):
            random_search(m, "ridge", {}, n_samples=1)
        with pytest.raises(ValueError):
            random_search(m, "ridge", {"alpha": []}, n_samples=1)

    def test_cross_validate_report_shape(self):
        m = _search_data(5)
        rep = cross_validate(m, "ols", HyperParams(), k=3, seed=0)
        assert rep.model_name == "ols"
        assert rep.rmse >= rep.mae


def _reference_cross_validate(m, family, hp, k=5, seed=0):
    """cross_validate as a loop over the folds: fit_family on m.take of the
    training rows, scored on m.take of the held-out rows."""
    fold = kfold_plan(m.n_rows, k, seed)
    scores = []
    for f in range(k):
        train, test = m.take(np.flatnonzero(fold != f)), m.take(np.flatnonzero(fold == f))
        yhat = predict(fit_family(family, train, hp, seed=_derived_seed(seed, f)), test)
        scores.append((r_squared(test.y, yhat), mae(test.y, yhat), rmse(test.y, yhat)))
    r2, err, sq = (float(np.mean(s)) for s in zip(*scores))
    return EvalReport(family, r2, err, sq, hp, m.feature_names)


def _listing_days(n_listings=15, days=8, seed=0):
    """Rows that repeat their listing's features on most days, as the
    listing-day matrix does, with a price that moves from day to day."""
    rng = np.random.default_rng(seed)
    listing = rng.normal(size=(n_listings, 4)).round(1)
    x = np.repeat(listing, days, axis=0)
    x[:, 3] = np.tile(np.arange(days) % 2, n_listings)  # weekend flag
    y = 100 + 20 * x[:, 0] - 5 * x[:, 1] * x[:, 2] + 8 * x[:, 3] + rng.normal(0, 3, x.shape[0])
    return _fm(x, y)


class TestTreeFoldsMatchPerFoldFits:
    """The forest and gbm fit all folds over one coding of the matrix with
    their trees grown together; their reports are the per-fold loop's bit
    for bit."""

    @pytest.mark.parametrize("family, hp", [
        ("forest", HyperParams(n_trees=4, max_depth=4)),
        ("forest", HyperParams(n_trees=3, max_depth=6, max_features=2, min_samples_split=4)),
        ("gbm", HyperParams(n_rounds=5, max_depth=3, learning_rate=0.3)),
        ("gbm", HyperParams(n_rounds=3, max_depth=2, min_samples_split=6)),
    ])
    @pytest.mark.parametrize("data", ["listing_days", "continuous"])
    def test_cross_validate(self, family, hp, data):
        m = _listing_days() if data == "listing_days" else _search_data(7)
        for k, seed in ((3, 0), (5, 4)):
            assert cross_validate(m, family, hp, k=k, seed=seed) == \
                _reference_cross_validate(m, family, hp, k=k, seed=seed)

    @pytest.mark.parametrize("family, grid", [
        ("forest", {"n_trees": [2, 3], "max_depth": [2, 4]}),
        ("gbm", {"n_rounds": [3, 6], "max_depth": [2, 3], "learning_rate": [0.3]}),
    ])
    def test_random_search(self, monkeypatch, family, grid):
        m = _listing_days(seed=2)
        got = random_search(m, family, grid, n_samples=3, k=4, seed=5)
        monkeypatch.setattr(rentlab.evaluation, "cross_validate", _reference_cross_validate)
        assert got == random_search(m, family, grid, n_samples=3, k=4, seed=5)


class TestCompareModels:
    def _split(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(80, 3))
        y = x[:, 0] * 2 + rng.normal(0, 0.1, size=80)
        m = _fm(x, y)
        return (m, *train_test_split(m.n_rows, 0.8, seed=1))

    def test_report_layout_columns(self):
        split = self._split()
        configs = [ModelConfig("lasso"), ModelConfig("forest", HyperParams(n_trees=5))]
        reports = compare_models(*split, configs)
        table = reports_to_table(reports)
        assert table.names == ("Metric", "lasso", "forest")
        assert table.cells("Metric") == [
            "R-Squared",
            "Mean Absolute Error",
            "Root Mean Squared Error",
        ]

    def test_deterministic_run_twice(self):
        split = self._split()
        configs = [ModelConfig("gbm", HyperParams(n_rounds=5)), ModelConfig("ridge")]
        a = compare_models(*split, configs)
        b = compare_models(*split, configs)
        assert a == b

    def test_cd_diagnostics_only_on_cd_families(self):
        split = self._split()
        configs = [ModelConfig(f, HyperParams(n_trees=3, n_rounds=3))
                   for f in ("ols", "lasso", "ridge", "elastic", "forest", "gbm")]
        docs = {d["model_name"]: d for d in reports_to_doc(compare_models(*split, configs))}
        for family in ("lasso", "ridge", "elastic"):
            assert docs[family]["converged"] is True
            assert docs[family]["n_iter"] >= 1
        for family in ("ols", "forest", "gbm"):
            assert "converged" not in docs[family] and "n_iter" not in docs[family]
