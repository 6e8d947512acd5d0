import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rentlab.features import FeatureMatrix
from rentlab.models import HyperParams, LinearModel, fit_family, fit_forest, fit_ols, fit_tree, predict
from rentlab.select_explain import (
    EXACT_SHAPLEY_MAX_P,
    FeatureScore,
    ShapExplanation,
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=500.0),
        st.integers(min_value=3, max_value=500),
    )
    def test_f_survival_matches_scipy(self, f_value, d2):
        ours = f_survival(f_value, 1.0, float(d2))
        oracle = float(scipy.stats.f.sf(f_value, 1, d2))
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

        train, val = train_test_split(m, 0.8, seed)

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

    def test_max_features_validation(self):
        with pytest.raises(ValueError):
            forward_select(_fm([1.0, 2.0], [1.0, 2.0]), max_features=0)


class TestShapleyExact:
    def test_single_feature_full_attribution(self):
        model = LinearModel(2.0, np.array([3.0]))
        background = _fm([0.0, 2.0, 4.0], [0.0, 0.0, 0.0])
        expl = shapley_values(model, np.array([5.0]), background)
        assert expl.values[0] == pytest.approx(expl.prediction - expl.base_value, abs=1e-12)

    def test_linear_closed_form(self):
        rng = np.random.default_rng(3)
        beta = np.array([2.0, -1.5, 0.5, 4.0])
        model = LinearModel(1.0, beta)
        bg = rng.normal(size=(40, 4))
        background = _fm(bg, np.zeros(40))
        instance = rng.normal(size=4)
        expl = shapley_values(model, instance, background)
        expected = beta * (instance - bg.mean(axis=0))
        assert np.allclose(expl.values, expected, atol=1e-9)

    def test_efficiency_axiom(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        y = x[:, 0] * x[:, 1] + x[:, 2] + rng.normal(0, 0.1, 30)
        m = _fm(x, y)
        model = fit_forest(m, HyperParams(n_trees=5, max_depth=4), seed=1)
        background = _fm(x[:15], y[:15])
        expl = shapley_values(model, x[0], background)
        assert abs(expl.residual()) < 1e-9

    def test_symmetry_axiom(self):
        # two functionally identical features: model uses their sum
        class SumModel:
            feature_names = ("a", "b")

            def predict(self, x):
                return x[:, 0] + x[:, 1]

        bg = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        expl = shapley_values(SumModel(), np.array([3.0, 3.0]), _fm(bg, np.zeros(3)))
        assert expl.values[0] == pytest.approx(expl.values[1], abs=1e-9)

    def test_null_player_axiom(self):
        model = LinearModel(0.0, np.array([1.0, 0.0]))
        bg = np.random.default_rng(7).normal(size=(20, 2))
        expl = shapley_values(model, np.array([1.0, 99.0]), _fm(bg, np.zeros(20)))
        assert expl.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_empty_background_rejected(self):
        model = LinearModel(0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            shapley_values(model, np.array([1.0]), np.empty((0, 1)))


class TestShapleyMonteCarlo:
    def _tree_model_and_data(self, p=8, n=60, seed=11):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        y = 3 * x[:, 0] * (x[:, 1] > 0) + x[:, 2] + 0.5 * x[:, 3] + rng.normal(0, 0.05, n)
        m = _fm(x, y)
        model = fit_tree(m, HyperParams(max_depth=5))
        return model, m

    def test_matches_exact_within_tolerance_at_2000(self):
        model, m = self._tree_model_and_data()
        background = m.take(range(25))
        instance = m.x[0]
        exact = shapley_values(model, instance, background)

        from rentlab import select_explain

        _, sampled_values = select_explain._sampled_shapley(model, instance, background.x, 2000, 0)
        tol = 0.05 * (abs(exact.prediction - exact.base_value) + 1e-9)
        assert np.max(np.abs(sampled_values - exact.values)) <= tol

    def test_budget_growth_shrinks_error(self):
        model, m = self._tree_model_and_data(seed=13)
        background = m.take(range(20))
        instance = m.x[1]
        exact = shapley_values(model, instance, background)

        from rentlab import select_explain

        def max_err(budget, seed):
            _, sampled = select_explain._sampled_shapley(model, instance, background.x, budget, seed)
            return float(np.max(np.abs(sampled - exact.values)))

        small = np.median([max_err(60, s) for s in range(5)])
        large = np.median([max_err(600, s) for s in range(5)])
        assert large <= small

    def test_sampled_efficiency_is_exact_by_telescoping(self):
        model, m = self._tree_model_and_data(seed=17)
        background = m.take(range(10))

        from rentlab import select_explain

        _, sampled = select_explain._sampled_shapley(model, m.x[2], background.x, 50, 3)
        masks = np.array([[False] * 8, [True] * 8])
        base, prediction = select_explain._coalition_values(model, m.x[2], background.x, masks)
        assert prediction - base == pytest.approx(float(sampled.sum()), abs=1e-9)


# Reference Shapley estimators: one predict per coalition, each coalition an
# int bitmask (bit j = feature j) with its value cached by mask. The batched
# estimators in select_explain must reproduce them.
class _ValueFunction:
    """v(S): mean prediction over the background with S pinned to the instance."""

    def __init__(self, model, instance: np.ndarray, background: np.ndarray):
        self.model = model
        self.instance = instance
        self.background = background
        self.p = instance.shape[0]
        self._cache: dict[int, float] = {}

    def __call__(self, mask: int) -> float:
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        composite = self.background.copy()
        for j in range(self.p):
            if mask >> j & 1:
                composite[:, j] = self.instance[j]
        value = float(predict(self.model, composite).mean())
        if self.p <= 20:
            self._cache[mask] = value
        return value


def _exact_shapley(v: _ValueFunction, p: int) -> np.ndarray:
    fact = [math.factorial(i) for i in range(p + 1)]
    weight = [fact[s] * fact[p - 1 - s] / fact[p] for s in range(p)]
    table = np.empty(1 << p)
    for mask in range(1 << p):
        table[mask] = v(mask)
    phi = np.zeros(p)
    for mask in range(1 << p):
        s = bin(mask).count("1")
        for j in range(p):
            bit = 1 << j
            if mask & bit:
                continue
            phi[j] += weight[s] * (table[mask | bit] - table[mask])
    return phi


def _sampled_shapley(v: _ValueFunction, p: int, budget: int, seed: int) -> np.ndarray:
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A9)))
    phi = np.zeros(p)
    for _ in range(budget):
        order = rng.permutation(p)
        mask = 0
        prev = v(0)
        for j in order:
            mask |= 1 << int(j)
            cur = v(mask)
            phi[j] += cur - prev
            prev = cur
    return phi / budget


def _reference_shapley(model, instance, background, budget=2000, seed=0) -> ShapExplanation:
    inst = np.asarray(instance, dtype=np.float64).reshape(-1)
    p = inst.shape[0]
    v = _ValueFunction(model, inst, background)
    base = v(0)
    prediction = float(predict(model, inst.reshape(1, -1))[0])
    if p <= EXACT_SHAPLEY_MAX_P:
        values = _exact_shapley(v, p)
    else:
        values = _sampled_shapley(v, p, budget, seed)
    return ShapExplanation(base, values, prediction)


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


class TestBatchedShapleyMatchesReference:
    """The batched estimators against the per-coalition reference above."""

    # (p, background rows, budget): exact at p = 8 and 12, sampled at p = 40;
    # the last two split every evaluation into several blocks
    CASES = [(8, 10, 1), (12, 12, 1), (12, 40, 1), (40, 9, 3), (40, 100, 2)]

    @pytest.mark.parametrize("family", ["tree", "forest", "gbm"])
    @pytest.mark.parametrize("p,n_bg,budget", CASES)
    def test_tree_families_bit_identical(self, family, p, n_bg, budget):
        m = _price_data(p, seed=p)
        model = _fit(family, m)
        background = m.x[:n_bg]
        for i in (n_bg, n_bg + 1):
            ours = shapley_values(model, m.x[i], background, budget=budget, seed=i)
            ref = _reference_shapley(model, m.x[i], background, budget=budget, seed=i)
            assert ours.base_value == ref.base_value
            assert ours.prediction == ref.prediction
            assert np.array_equal(ours.values, ref.values)

    @pytest.mark.parametrize("family", ["ols", "lasso", "ridge", "elastic"])
    @pytest.mark.parametrize("p,n_bg,budget", CASES)
    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_linear_families_agree_to_1e12_of_the_output(self, family, p, n_bg, budget, offset):
        # a block's matrix-vector product may round a row differently from a
        # one-coalition product. The rounding error scales with the terms of
        # x @ beta, so it is bounded relative to the model's output, not to
        # each (possibly tiny) value; the offset makes those terms cancel.
        m = _price_data(p, seed=p)
        m = _fm(m.x + offset * np.arange(1, p + 1) / p, m.y)
        model = _fit(family, m)
        background = m.x[:n_bg]
        for i in (n_bg, n_bg + 1):
            ours = shapley_values(model, m.x[i], background, budget=budget, seed=i)
            ref = _reference_shapley(model, m.x[i], background, budget=budget, seed=i)
            scale = max(abs(ref.base_value), abs(ref.prediction), 1.0)
            assert ours.prediction == ref.prediction
            assert abs(ours.base_value - ref.base_value) <= 1e-12 * scale
            assert np.max(np.abs(ours.values - ref.values)) <= 1e-12 * scale


class TestCoalitionBlocks:
    @staticmethod
    def _record_rows(monkeypatch):
        from rentlab import select_explain

        rows = []

        def recording_predict(model, x):
            rows.append(np.atleast_2d(x).shape[0])
            return predict(model, x)

        monkeypatch.setattr(select_explain, "predict", recording_predict)
        return rows

    @pytest.mark.parametrize("p,n_bg,budget", [(12, 40, 1), (40, 100, 2), (40, 4000, 1)])
    def test_blocks_stay_within_the_cap(self, monkeypatch, p, n_bg, budget):
        from rentlab.select_explain import _BLOCK_CELLS

        m = _price_data(p, n=n_bg + 1)
        model = _fit("tree", m)
        rows = self._record_rows(monkeypatch)
        shapley_values(model, m.x[n_bg], m.x[:n_bg], budget=budget)
        *blocks, single = rows
        assert single == 1  # the prediction itself
        coalitions = (1 << p) if p <= EXACT_SHAPLEY_MAX_P else budget * (p + 1)
        assert sum(blocks) == coalitions * n_bg
        for block in blocks:
            assert block % n_bg == 0
            # a block holds one coalition when one alone exceeds the cap
            assert block * p <= max(_BLOCK_CELLS, n_bg * p)
        assert len(blocks) > 1

    def test_demo_sized_row_takes_one_predict_per_permutation(self, monkeypatch):
        # the benchmark's demo workload explains 6 rows of 60 features
        # against those 6 rows with a budget of 2 permutations
        m = _price_data(60, n=6)
        model = _fit("gbm", m)
        rows = self._record_rows(monkeypatch)
        shapley_values(model, m.x[0], m, budget=2, seed=0)
        assert rows == [61 * 6, 61 * 6, 1]


class TestShapRanking:
    @staticmethod
    def _ranking(model, data, background=None):
        bg = data if background is None else background
        explanations = [
            shapley_values(model, data.x[i], bg, budget=2000, seed=i) for i in range(data.n_rows)
        ]
        return mean_abs_ranking(data.feature_names, explanations)

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
