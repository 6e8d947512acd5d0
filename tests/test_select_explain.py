import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from shapley_oracle import ValueFunction, exact_shapley, sampled_shapley

from rentlab.errors import RankDeficiencyError
from rentlab.evaluation import train_test_split
from rentlab.features import FeatureMatrix
from rentlab.models import HyperParams, LinearModel, fit_family, fit_forest, fit_ols, fit_tree, predict
from rentlab.select_explain import (
    FeatureScore,
    f_scores,
    f_survival,
    forward_select,
    mean_abs_ranking,
    regularized_incomplete_beta,
    select_k_best,
    shapley_values,
)


def _fm(x, y, names=None):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    names = names or tuple(f"x{i}" for i in range(x.shape[1]))
    return FeatureMatrix(x, tuple(names), np.asarray(y, dtype=np.float64))


class TestIncompleteBeta:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=60.0),
        st.floats(min_value=0.5, max_value=60.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_matches_scipy_to_1e10(self, a, b, x):
        ours = regularized_incomplete_beta(a, b, x)
        oracle = float(scipy.special.betainc(a, b, x))
        assert ours == pytest.approx(oracle, abs=1e-10)

    def test_edge_values(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=500.0),
        st.sampled_from([1, 2, 3, 6, 11, 40]),
        st.integers(min_value=3, max_value=500),
    )
    def test_f_survival_matches_scipy(self, f_value, d1, d2):
        # d1 > 1 is the F-test of a group of d1 columns at once
        ours = f_survival(f_value, float(d1), float(d2))
        oracle = float(scipy.stats.f.sf(f_value, d1, d2))
        assert ours == pytest.approx(oracle, abs=1e-10)


class TestFScores:
    def test_orthogonal_feature_scores_zero(self):
        scores = f_scores(_fm([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
        assert scores[0].score == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation_flagged_infinite_first(self):
        x = np.column_stack([[1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 3.0, 2.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        scores = f_scores(_fm(x, y))
        assert math.isinf(scores[0].score)
        assert scores[0].flag == "perfect_correlation"
        assert scores[0].p_value == 0.0
        assert select_k_best(scores, 1) == ["x0"]

    def test_zero_variance_feature_flagged(self):
        x = np.column_stack([[5.0, 5.0, 5.0, 5.0], [1.0, 2.0, 3.0, 5.0]])
        scores = f_scores(_fm(x, [1.0, 2.0, 4.0, 3.0]))
        assert scores[0].score == 0.0
        assert scores[0].flag == "zero_variance"

    @pytest.mark.parametrize("value", [0.1, 0.7])
    def test_constant_column_with_inexact_mean_flagged(self, value):
        # seven copies of 0.1 have a std of 1.4e-17, not 0
        x = np.column_stack([np.full(7, value), np.arange(7.0)])
        scores = f_scores(_fm(x, [1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0]))
        assert (scores[0].score, scores[0].p_value, scores[0].flag) == (0.0, 1.0, "zero_variance")

    def test_twenty_row_matrix_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(20, 6))
        y = rng.normal(size=20)
        scores = f_scores(_fm(x, y))
        n = 20
        for j, fs in enumerate(scores):
            # independent correlation computation
            r = float(np.corrcoef(x[:, j], y)[0, 1])
            f_expected = r * r / (1 - r * r) * (n - 2)
            assert fs.score == pytest.approx(f_expected, abs=1e-9 * (1 + f_expected))
            assert fs.p_value == pytest.approx(float(scipy.stats.f.sf(f_expected, 1, n - 2)), abs=1e-10)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            f_scores(_fm([1.0, 2.0], [1.0, 2.0]))

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError):
            f_scores(_fm([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))
        with pytest.raises(ValueError, match="target has zero variance"):
            f_scores(_fm(np.arange(7.0), [0.1] * 7))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(15, 1))
        y = 2 * x[:, 0] + rng.normal(size=15)
        base = f_scores(_fm(x, y))[0].score
        rescaled = f_scores(_fm(x * scale + shift, y))[0].score
        assert rescaled == pytest.approx(base, abs=1e-9 * (1 + base))


class TestSelectKBest:
    def test_top_two(self):
        scores = [
            FeatureScore("a", 2.0, 0.1),
            FeatureScore("b", 1.0, 0.2),
            FeatureScore("c", 3.0, 0.05),
        ]
        assert select_k_best(scores, 2) == ["c", "a"]

    def test_k_equal_p_sorted(self):
        scores = [FeatureScore("a", 1.0, 0.5), FeatureScore("b", 9.0, 0.1)]
        assert select_k_best(scores, 2) == ["b", "a"]

    def test_k_beyond_p_takes_all_with_warning(self):
        scores = [FeatureScore("a", 1.0, 0.5)]
        with pytest.warns(UserWarning):
            assert select_k_best(scores, 5) == ["a"]

    def test_tie_broken_alphabetically(self):
        scores = [FeatureScore("tv", 2.0, 0.1), FeatureScore("oven", 2.0, 0.1)]
        assert select_k_best(scores, 2) == ["oven", "tv"]

    def test_reranking_stored_scores_preserves_order(self):
        # stored selection scores from a production run; re-ranking the
        # shuffled list must reproduce the published order
        stored = [
            ("room_type_Private room", 1310.3853),
            ("bedrooms", 1261.6139),
            ("accommodates", 1183.7553),
            ("room_type_Shared room", 1044.0561),
            ("beds", 997.1433),
            ("reviews_per_month", 331.3587),
            ("Dishwasher", 307.2222),
            ("Kitchen", 270.1310),
            ("number_of_reviews_ltm", 257.0923),
            ("Number of Amenities", 214.9709),
        ]
        shuffled = [stored[i] for i in (5, 2, 9, 0, 7, 4, 1, 8, 3, 6)]
        scores = [FeatureScore(name, value, 0.0) for name, value in shuffled]
        ranked = select_k_best(scores, 10)
        assert ranked == [name for name, _ in stored]
        assert ranked[1] == "bedrooms"

    def test_prefix_property(self):
        rng = np.random.default_rng(5)
        scores = [FeatureScore(f"f{i}", float(v), 0.5) for i, v in enumerate(rng.normal(size=12))]
        for k in range(1, 12):
            assert select_k_best(scores, k) == select_k_best(scores, k + 1)[:k]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            select_k_best([FeatureScore("a", 1.0, 0.1)], 0)


def _greedy_by_refits(m, max_features, min_rel_improvement, seed):
    """Reference forward selection: for every candidate at every step, a
    fit_ols refit on copies of the train columns and a validation error from
    the fitted intercept."""
    train, val = (m.take(rows) for rows in train_test_split(m.n_rows, 0.8, seed))
    atol = 1e-12 * max(1.0, float(val.y @ val.y) / val.n_rows)
    selected: list[str] = []
    remaining = list(m.feature_names)
    base_err = val.y - train.y.mean()
    prev_mse = float(base_err @ base_err) / val.n_rows
    while remaining and len(selected) < max_features:
        best_mse = best_name = None
        for cand in remaining:
            cols = selected + [cand]
            try:
                model = fit_ols(train.select(cols))
            except RankDeficiencyError:
                continue
            err = val.select(cols).x @ model.coefficients + model.intercept - val.y
            mse = float(err @ err) / val.n_rows
            if best_mse is None or mse < best_mse:
                best_mse, best_name = mse, cand
        if best_name is None or prev_mse <= 0.0:
            break
        if (prev_mse - best_mse) / prev_mse < min_rel_improvement:
            break
        selected.append(best_name)
        remaining.remove(best_name)
        prev_mse = best_mse
        if prev_mse <= atol:
            break
    return selected


@st.composite
def _selection_problems(draw):
    """(matrix, seed): noisy linear data on columns of varied scale and
    offset, plus exact duplicates, columns constant everywhere or only on the
    train rows of the seed's split, and near-ties (a column plus a 1e-4
    relative perturbation)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seed = draw(st.integers(0, 1000))
    n, p = draw(st.integers(5, 60)), draw(st.integers(1, 6))
    x = rng.normal(size=(n, p)) * rng.uniform(0.01, 10.0, size=p) + rng.uniform(-100, 100, size=p)
    y = x @ rng.normal(size=p) + rng.normal(size=n) * rng.uniform(0.01, 3.0)
    # the split's train rows
    train_rows, _ = train_test_split(n, 0.8, seed)
    on_val = np.ones(n, dtype=bool)
    on_val[train_rows] = False
    columns = [x]
    for kind in draw(st.lists(st.sampled_from(["duplicate", "constant", "train_constant",
                                               "near_tie"]), max_size=4)):
        j = int(rng.integers(x.shape[1]))
        if kind == "duplicate":
            col = x[:, j]
        elif kind == "constant":
            col = np.full(n, float(rng.choice([0.0, 1.0, 30.27])))
        elif kind == "train_constant":
            col = np.where(on_val, rng.normal(size=n), 1.0)
        else:
            col = x[:, j] + 1e-4 * x[:, j].std() * rng.normal(size=n)
        columns.append(col[:, None])
    x = np.hstack(columns)
    x = x[:, rng.permutation(x.shape[1])]
    return _fm(x, y), seed


class TestForwardSelect:
    def test_perfect_predictor_selected_first_and_stops(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 3))
        y = x[:, 1].copy()
        chosen = forward_select(_fm(x, y), max_features=3, min_rel_improvement=1e-3)
        assert chosen == ["x1"]

    def test_max_features_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 3))
        y = 3 * x[:, 2] + rng.normal(0, 0.1, size=50)
        chosen = forward_select(_fm(x, y), max_features=1)
        assert chosen == ["x2"]

    def test_matches_exhaustive_subset_oracle(self):
        from rentlab.evaluation import train_test_split

        rng = np.random.default_rng(11)
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

        singletons = {(f,): val_mse([f]) for f in m.feature_names}
        best_single = min(singletons, key=singletons.get)
        assert chosen[0] == best_single[0]

        pairs = {
            (a, b): val_mse([a, b])
            for a in m.feature_names
            for b in m.feature_names
            if a < b
        }
        best_pair = set(min(pairs, key=pairs.get))
        assert set(chosen[:2]) == best_pair == {"x0", "x2"}
        assert "x1" not in chosen

    def test_prefix_stable_in_max_features(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(80, 5))
        y = 2 * x[:, 0] + x[:, 3] + 0.5 * x[:, 4] + rng.normal(0, 0.1, size=80)
        m = _fm(x, y)
        prev = forward_select(m, max_features=1, min_rel_improvement=1e-9)
        for k in range(2, 6):
            cur = forward_select(m, max_features=k, min_rel_improvement=1e-9)
            assert cur[: len(prev)] == prev
            prev = cur

    @settings(max_examples=200, deadline=None)
    @given(_selection_problems(), st.integers(1, 8), st.sampled_from([0.0, 1e-6, 1e-3]))
    def test_same_picks_as_refitting_each_candidate(self, problem, max_features, tol):
        m, seed = problem
        assert forward_select(m, max_features, tol, seed) == _greedy_by_refits(m, max_features, tol,
                                                                               seed)

    def test_max_features_validation(self):
        with pytest.raises(ValueError):
            forward_select(_fm([1.0, 2.0], [1.0, 2.0]), max_features=0)


class TestShapleyExact:
    def test_single_feature_full_attribution(self):
        model = LinearModel(2.0, np.array([3.0]))
        background = _fm([0.0, 2.0, 4.0], [0.0, 0.0, 0.0])
        expl = shapley_values(model, np.array([[5.0]]), background)
        assert expl.values[0, 0] == pytest.approx(expl.predictions[0] - expl.base_value, abs=1e-12)

    def test_linear_closed_form(self):
        rng = np.random.default_rng(3)
        beta = np.array([2.0, -1.5, 0.5, 4.0])
        model = LinearModel(1.0, beta)
        bg = rng.normal(size=(40, 4))
        background = _fm(bg, np.zeros(40))
        instance = rng.normal(size=4)
        expl = shapley_values(model, instance[None], background)
        expected = beta * (instance - bg.mean(axis=0))
        assert np.allclose(expl.values[0], expected, atol=1e-9)

    def test_efficiency_axiom(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        y = x[:, 0] * x[:, 1] + x[:, 2] + rng.normal(0, 0.1, 30)
        m = _fm(x, y)
        model = fit_forest(m, HyperParams(n_trees=5, max_depth=4), seed=1)
        background = _fm(x[:15], y[:15])
        expl = shapley_values(model, x[:1], background)
        assert abs(expl.residuals()[0]) < 1e-9

    def test_symmetry_axiom(self):
        # two functionally identical features: model uses their sum
        model = LinearModel(0.0, np.array([1.0, 1.0]), feature_names=("a", "b"))
        bg = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        expl = shapley_values(model, np.array([[3.0, 3.0]]), _fm(bg, np.zeros(3)))
        assert expl.values[0, 0] == pytest.approx(expl.values[0, 1], abs=1e-9)

    def test_null_player_axiom(self):
        model = LinearModel(0.0, np.array([1.0, 0.0]))
        bg = np.random.default_rng(7).normal(size=(20, 2))
        expl = shapley_values(model, np.array([[1.0, 99.0]]), _fm(bg, np.zeros(20)))
        assert expl.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_empty_background_rejected(self):
        model = LinearModel(0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            shapley_values(model, np.array([[1.0]]), np.empty((0, 1)))

    def test_single_leaf_tree_attributes_nothing(self):
        m = _fm(np.arange(6.0).reshape(3, 2), [4.0, 4.0, 4.0])
        model = fit_tree(m)
        assert model.depth == 0
        expl = shapley_values(model, np.array([[9.0, -9.0]]), m)
        assert expl.values.tolist() == [[0.0, 0.0]]
        assert expl.base_value == expl.predictions[0] == 4.0


class TestShapleyMonteCarlo:
    """The permutation sampler in shapley_oracle, which C2 and the p = 40
    gate below rely on."""

    def _tree_model_and_data(self, p=8, n=60, seed=11):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        y = 3 * x[:, 0] * (x[:, 1] > 0) + x[:, 2] + 0.5 * x[:, 3] + rng.normal(0, 0.05, n)
        m = _fm(x, y)
        model = fit_tree(m, HyperParams(max_depth=5))
        return model, m

    def test_matches_exact_within_tolerance_at_2000(self):
        model, m = self._tree_model_and_data()
        background = m.x[:25]
        instance = m.x[0]
        exact = shapley_values(model, instance[None], background)
        sampled = sampled_shapley(ValueFunction(model, instance, background), 2000, 0)
        tol = 0.05 * (abs(exact.predictions[0] - exact.base_value) + 1e-9)
        assert np.max(np.abs(sampled - exact.values[0])) <= tol

    def test_budget_growth_shrinks_error(self):
        model, m = self._tree_model_and_data(seed=13)
        background = m.x[:20]
        instance = m.x[1]
        exact = shapley_values(model, instance[None], background)
        v = ValueFunction(model, instance, background)

        def max_err(budget, seed):
            return float(np.max(np.abs(sampled_shapley(v, budget, seed) - exact.values[0])))

        small = np.median([max_err(60, s) for s in range(5)])
        large = np.median([max_err(600, s) for s in range(5)])
        assert large <= small

    def test_sampled_efficiency_is_exact_by_telescoping(self):
        model, m = self._tree_model_and_data(seed=17)
        v = ValueFunction(model, m.x[2], m.x[:10])
        sampled = sampled_shapley(v, 50, 3)
        assert v((1 << 8) - 1) - v(0) == pytest.approx(float(sampled.sum()), abs=1e-9)


def _price_data(p, n=120, seed=0):
    """Price-scale data with an interaction, so trees split on many columns."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * np.linspace(1.0, 5.0, p)
    y = 150.0 + x @ rng.normal(0, 3, size=p) + 8 * x[:, 0] * (x[:, 1] > 0) + rng.normal(0, 2, n)
    return _fm(x, y)


def _fit(family, m):
    if family == "tree":
        return fit_tree(m, HyperParams(max_depth=6))
    hp = HyperParams(n_trees=4, max_depth=4, n_rounds=8, alpha=0.05, learning_rate=0.3)
    return fit_family(family, m, hp, seed=3)


FAMILIES = ["tree", "forest", "gbm", "ols", "lasso", "ridge", "elastic"]


class TestShapleyGates:
    """The closed forms against the per-coalition oracles in shapley_oracle."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p,n_bg", [(3, 1), (8, 10), (12, 12)])
    def test_exact_matches_enumeration_to_1e10_of_the_output(self, family, p, n_bg):
        m = _price_data(p, seed=p)
        model = _fit(family, m)
        background = m.x[:n_bg]
        ours = shapley_values(model, m.x[n_bg:n_bg + 2], background)
        assert np.array_equal(ours.predictions, predict(model, m.x[n_bg:n_bg + 2]))
        for k, i in enumerate((n_bg, n_bg + 1)):
            v = ValueFunction(model, m.x[i], background)
            scale = max(abs(ours.base_value), abs(ours.predictions[k]), 1.0)
            assert ours.base_value == pytest.approx(v(0), abs=1e-12 * scale)
            assert np.max(np.abs(ours.values[k] - exact_shapley(v))) <= 1e-10 * scale

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sampler_at_2000_permutations_agrees_at_p40(self, family):
        m = _price_data(40, seed=40)
        model = _fit(family, m)
        background = m.x[:8]
        # the bound scales with |prediction - base|, so the probe is the row
        # whose prediction lies farthest from the base; near the base the
        # bound would fall below the sampler's own Monte Carlo error
        gap = np.abs(predict(model, m.x[8:40]) - predict(model, background).mean())
        probe = m.x[8 + int(gap.argmax())]
        ours = shapley_values(model, probe[None], background)
        sampled = sampled_shapley(ValueFunction(model, probe, background), 2000, 0)
        tol = 0.05 * abs(ours.predictions[0] - ours.base_value)
        assert np.max(np.abs(sampled - ours.values[0])) <= tol

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [8, 40])
    def test_efficiency_residual_within_1e9(self, family, p):
        m = _price_data(p, seed=p)
        model = _fit(family, m)
        assert np.max(np.abs(shapley_values(model, m.x[50:53], m.x[:30]).residuals())) <= 1e-9

    @pytest.mark.parametrize("family", ["tree", "forest", "gbm"])
    def test_cells_on_split_thresholds_route_as_predict_does(self, family):
        # x <= threshold goes left, so a cell equal to a threshold must count
        # as inside the left box and outside the right one
        m = _price_data(6, seed=7)
        model = _fit(family, m)
        trees = [model] if family == "tree" else model.trees
        rng = np.random.default_rng(0)
        grid = m.x[:12].copy()
        for j in range(6):
            on_j = np.concatenate([t.threshold[t.feature == j] for t in trees])
            if on_j.size:
                grid[:, j] = rng.choice(on_j, size=12)
        ours = shapley_values(model, grid[:2], grid[2:])
        for i in (0, 1):
            oracle = exact_shapley(ValueFunction(model, grid[i], grid[2:]))
            scale = max(abs(ours.base_value), abs(ours.predictions[i]), 1.0)
            assert np.max(np.abs(ours.values[i] - oracle)) <= 1e-10 * scale

    @pytest.mark.parametrize("family", ["tree", "forest", "gbm"])
    def test_feature_on_no_leaf_path_gets_exactly_zero(self, family):
        # columns 0 and 5 are constant, so no split uses them; column 0 also
        # shares its index with the free slots of short leaf paths
        m = _price_data(6, seed=6)
        x = m.x.copy()
        x[:, [0, 5]] = 1.5
        m = _fm(x, m.y)
        model = _fit(family, m)
        probe = m.x[7].copy()
        probe[[0, 5]] = [-40.0, 40.0]
        expl = shapley_values(model, probe[None], m.x[:20])
        assert expl.values[0, 0] == 0.0 and expl.values[0, 5] == 0.0
        assert np.any(expl.values != 0.0)

    @pytest.mark.parametrize("family", ["tree", "forest", "gbm"])
    def test_background_in_several_blocks_equals_one_block(self, monkeypatch, family):
        from rentlab import select_explain

        m = _price_data(10, n=300, seed=10)
        model = _fit(family, m)
        one = shapley_values(model, m.x[:1], m.x[1:])
        monkeypatch.setattr(select_explain, "_LEAF_CELLS", 1)  # one row per block
        several = shapley_values(model, m.x[:1], m.x[1:])
        # blocks only regroup the sum over background rows
        scale = max(abs(one.base_value), abs(one.predictions[0]))
        assert several.base_value == one.base_value
        assert several.predictions[0] == one.predictions[0]
        assert np.max(np.abs(several.values - one.values)) <= 1e-12 * scale

    @pytest.mark.parametrize("cells", [1, 1000])
    @pytest.mark.parametrize("family", ["tree", "forest", "gbm", "lasso", "depth-0 tree"])
    def test_block_of_rows_equals_each_row_alone(self, monkeypatch, family, cells):
        # cells=1 gives one background row per block, cells=1000 a few rows
        from rentlab import select_explain

        monkeypatch.setattr(select_explain, "_LEAF_CELLS", cells)
        m = _price_data(8, n=100, seed=8)
        if family == "depth-0 tree":
            model = fit_tree(m, HyperParams(max_depth=0))
        else:
            model = _fit(family, m)
        background = m.x[:60]
        block = shapley_values(model, m.x[60:70], background)
        assert block.values.shape == (10, 8) and block.predictions.shape == (10,)
        for k in range(10):
            alone = shapley_values(model, m.x[60 + k:61 + k], background)
            assert alone.base_value == block.base_value
            assert np.array_equal(alone.values[0], block.values[k])

    @pytest.mark.parametrize("family", ["tree", "forest", "gbm"])
    def test_large_background_stays_within_the_block_cap(self, family):
        # 20,000 background rows x 61 leaves x 6 path slots take about 71 MB
        # of temporaries in one block; blocks of 2^18 cells take under 5 MB,
        # and the ensembles explain one tree at a time; a block of explained
        # rows goes through each background block one row at a time
        import tracemalloc

        m = _price_data(10, n=500, seed=1)
        model = fit_tree(m, HyperParams(max_depth=6)) if family == "tree" else _fit(family, m)
        background = np.random.default_rng(2).normal(size=(20_000, 10))
        for rows in (1, 25):
            tracemalloc.start()
            try:
                shapley_values(model, m.x[:rows], background)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, rows

    def test_unsupported_model_raises_type_error_naming_it(self):
        class SumModel:
            feature_names = ("a", "b")

            def predict(self, x):
                return x[:, 0] + x[:, 1]

        bg = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(TypeError, match="SumModel"):
            shapley_values(SumModel(), np.array([[3.0, 3.0]]), bg)


class TestShapRanking:
    @staticmethod
    def _ranking(model, data, background=None):
        bg = data if background is None else background
        return mean_abs_ranking(data.feature_names, shapley_values(model, data.x, bg).values)

    def test_ignored_feature_ranks_zero(self):
        model = LinearModel(0.0, np.array([2.0, 0.0]))
        rng = np.random.default_rng(19)
        data = _fm(rng.normal(size=(12, 2)), np.zeros(12))
        ranking = dict(self._ranking(model, data))
        assert ranking["x1"] == pytest.approx(0.0, abs=1e-12)
        assert ranking["x0"] > 0

    def test_constant_model_all_zero(self):
        model = LinearModel(5.0, np.array([0.0, 0.0]))
        data = _fm(np.random.default_rng(23).normal(size=(8, 2)), np.zeros(8))
        assert all(v == pytest.approx(0.0, abs=1e-12) for _, v in self._ranking(model, data))

    def test_stable_under_background_duplication(self):
        model = LinearModel(1.0, np.array([2.0, -3.0, 0.5]))
        rng = np.random.default_rng(29)
        x = rng.normal(size=(10, 3))
        data = _fm(x, np.zeros(10))
        doubled = _fm(np.vstack([x, x]), np.zeros(20))
        base = self._ranking(model, data, background=data)
        dup = self._ranking(model, data, background=doubled)
        assert [n for n, _ in base] == [n for n, _ in dup]
        for (_, a), (_, b) in zip(base, dup):
            assert a == pytest.approx(b, abs=1e-9)
