import datetime as dt
import io
import json
import re
import tracemalloc
from collections import deque
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rentlab.models.forest
import rentlab.models.linear
import rentlab.models.tree
from rentlab.cli import Eval, Models, main, stage_evaluate, stage_featurize, stage_train
from rentlab.errors import EmptyInputError, SchemaError
from rentlab.evaluation import cross_validate
from rentlab.features import FeatureMatrix, matrix_to_csv
from rentlab.models import (
    FAMILIES,
    BoostedModel,
    HyperParams,
    Tree,
    auto_max_features,
    fit_family,
    fit_forest,
    fit_gbm,
    fit_tree,
    load_model,
    model_from_doc,
    model_to_doc,
    predict,
    save_model,
)
from rentlab.models.tree import code_columns
from rentlab.tabular import Table


def _fm(x, y, names=None):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    names = names or tuple(f"x{i}" for i in range(x.shape[1]))
    return FeatureMatrix(x, tuple(names), np.asarray(y, dtype=np.float64))


class TestFitTree:
    def test_perfect_split_depth_one(self):
        m = _fm([0.0, 1.0, 10.0, 11.0], [1.0, 1.0, 5.0, 5.0])
        tree = fit_tree(m, HyperParams(max_depth=3))
        assert tree.depth == 1
        leaves = sorted([tree.value[tree.left[0]], tree.value[tree.right[0]]])
        assert leaves == [1.0, 5.0]
        assert np.allclose(tree.predict(m.x), m.y)

    def test_depth_zero_single_leaf(self):
        m = _fm([0.0, 1.0, 2.0], [1.0, 2.0, 6.0])
        tree = fit_tree(m, HyperParams(max_depth=0))
        assert tree.feature[0] == -1
        assert tree.value[0] == pytest.approx(3.0, abs=1e-12)

    def test_constant_target_single_leaf(self):
        m = _fm([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        tree = fit_tree(m, HyperParams(max_depth=5))
        assert tree.feature[0] == -1

    @pytest.mark.parametrize("scale", [1e-7, 1e7])
    def test_target_units_do_not_change_the_splits(self, scale):
        # the split floor is relative to the node's SSE: an absolute one
        # stopped the y * 1e-7 tree after its root
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        y = x[:, 0] + 0.5 * rng.normal(size=200)
        hp = HyperParams(max_depth=3)
        base = fit_tree(FeatureMatrix(x, ("a", "b", "c"), y), hp)
        scaled = fit_tree(FeatureMatrix(x, ("a", "b", "c"), y * scale), hp)
        assert int((base.feature >= 0).sum()) == 7
        for f in ("feature", "threshold"):
            assert np.array_equal(getattr(scaled, f), getattr(base, f)), f

    def test_empty_matrix_raises(self):
        m = FeatureMatrix(np.empty((0, 1)), ("a",), np.empty(0))
        with pytest.raises(EmptyInputError):
            fit_tree(m)

    def test_min_samples_split_respected(self):
        m = _fm([0.0, 1.0, 10.0, 11.0], [1.0, 2.0, 5.0, 6.0])
        tree = fit_tree(m, HyperParams(max_depth=10, min_samples_split=5))
        assert tree.feature[0] == -1

    def test_split_sends_low_values_left(self):
        m = _fm([0.0, 1.0, 10.0, 11.0], [1.0, 1.0, 5.0, 5.0])
        tree = fit_tree(m, HyperParams(max_depth=1))
        assert tree.predict(np.array([[tree.threshold[0]]]))[0] == tree.value[tree.left[0]]

    def test_training_row_in_pure_leaf_predicts_its_target(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(32, 3))
        y = rng.normal(size=32)
        m = _fm(x, y)
        tree = fit_tree(m, HyperParams(max_depth=30))
        # deep tree isolates every distinct row: prediction = training target
        assert np.allclose(tree.predict(x), y, atol=1e-12)

    def test_tie_break_prefers_lower_feature_index(self):
        # both features allow the same perfect split
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        m = _fm(x, [1.0, 1.0, 9.0, 9.0])
        tree = fit_tree(m, HyperParams(max_depth=1))
        assert tree.feature[0] == 0

    def test_nodes_are_in_preorder(self):
        rng = np.random.default_rng(6)
        m = _fm(rng.normal(size=(40, 3)), rng.normal(size=40))
        tree = fit_tree(m, HyperParams(max_depth=4))
        nodes = np.arange(tree.feature.size)
        split = tree.feature >= 0
        assert split[0]
        # a left child directly follows its parent; children come later
        assert np.array_equal(tree.left[split], nodes[split] + 1)
        assert np.all(tree.right[split] > tree.left[split])
        assert np.array_equal(tree.left[~split], nodes[~split])
        assert np.array_equal(tree.right[~split], nodes[~split])
        assert tree.depth == 4


def _shapes():
    """Full binary tree shapes: None is a leaf and a pair a split."""
    return st.recursive(st.none(), lambda sub: st.tuples(sub, sub), max_leaves=40)


def _reference_children(shape):
    """Slow oracle: number a shape's nodes in preorder by a recursive walk.
    Returns each node's feature (its depth at a split, -1 at a leaf), left
    and right child (a leaf's are itself) and the tree's depth."""
    feature, left, right = [], [], []

    def walk(node, depth):
        i = len(feature)
        feature.append(-1 if node is None else depth)
        left.append(i)
        right.append(i)
        if node is None:
            return depth
        left[i] = len(feature)
        deepest = walk(node[0], depth + 1)
        right[i] = len(feature)
        return max(deepest, walk(node[1], depth + 1))

    depth = walk(shape, 0)
    return feature, left, right, depth


class TestDerivedChildren:
    """A tree stores only its preorder split/leaf marks; its children and
    depth are derived from them."""

    @settings(max_examples=200, deadline=None)
    @given(shape=_shapes())
    def test_children_and_depth_match_a_recursive_walk(self, shape):
        feature, left, right, depth = _reference_children(shape)
        n = len(feature)
        tree = Tree(feature, np.zeros(n), np.arange(n, dtype=np.float64))
        assert tree.left.tolist() == left
        assert tree.right.tolist() == right
        assert tree.depth == depth

    @settings(max_examples=200, deadline=None)
    @given(shape=_shapes(), data=st.data())
    def test_corrupted_marks_rejected(self, shape, data):
        feature = _reference_children(shape)[0]
        n = len(feature)
        flipped = list(feature)
        i = data.draw(st.integers(0, n - 1), label="flipped")
        flipped[i] = 0 if feature[i] < 0 else -1
        truncated = feature[:data.draw(st.integers(1, n), label="cut") - 1]
        appended = feature + [data.draw(st.sampled_from([-1, 0]), label="appended")]
        corrupted = [flipped, truncated, appended, []]
        if n > 1:
            # the last leaf moved to the front: the marks still sum to -1,
            # but the tree ends at its first node
            corrupted.append([-1] + feature[:-1])
        for marks in corrupted:
            with pytest.raises(ValueError, match="preorder"):
                Tree(marks, np.zeros(len(marks)), np.zeros(len(marks)))


def _walk(tree, row):
    """Slow oracle: follow one row from the root until a leaf."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return tree.value[node]


class TestTreePredict:
    @pytest.mark.parametrize("max_depth", [0, 1, 30])
    def test_matches_row_by_row_walk(self, max_depth):
        rng = np.random.default_rng(max_depth)
        x = rng.normal(size=(120, 4))
        x[:, 2] = np.round(x[:, 2])  # ties among training values
        y = x[:, 0] + np.sign(x[:, 1]) + rng.normal(0, 0.3, size=120)
        tree = fit_tree(_fm(x, y), HyperParams(max_depth=max_depth))
        grid = rng.normal(size=(200, 4)) * 2
        # one row sitting exactly on each split threshold
        on_split = grid[: int((tree.feature >= 0).sum())].copy()
        for r, node in enumerate(np.flatnonzero(tree.feature >= 0)):
            on_split[r, tree.feature[node]] = tree.threshold[node]
        rows = np.vstack([x, grid, on_split])
        expected = np.array([_walk(tree, row) for row in rows])
        assert tree.predict(rows).tobytes() == expected.tobytes()
        assert tree.depth <= max_depth
        if max_depth < 30:
            assert tree.depth == max_depth

    def test_single_row(self):
        m = _fm([0.0, 1.0, 10.0, 11.0], [1.0, 1.0, 5.0, 5.0])
        tree = fit_tree(m, HyperParams(max_depth=2))
        assert tree.predict(np.array([10.5])).tolist() == [5.0]


class TestFitForest:
    def _data(self, n=60, p=4, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        y = x[:, 0] * 3 + np.sin(x[:, 1]) + rng.normal(0, 0.1, size=n)
        return _fm(x, y)

    def test_degenerate_forest_equals_single_tree(self):
        # one tree over every feature is fit_tree on the bootstrap sample,
        # which the forest draws as row multiplicities
        m = self._data()
        hp = HyperParams(n_trees=1, max_depth=4, max_features=m.n_features)
        forest = fit_forest(m, hp, seed=3)
        draws = rentlab.models.forest._tree_rng(3, 0).integers(0, m.n_rows, size=m.n_rows)
        sample = _sample(m, np.bincount(draws, minlength=m.n_rows))
        tree = fit_tree(sample, HyperParams(max_depth=4))
        _assert_same_trees(forest.trees, [tree], m.y)
        assert np.allclose(forest.predict(m.x), tree.predict(m.x), rtol=0, atol=1e-12)

    def test_predictions_within_target_range(self):
        m = self._data()
        forest = fit_forest(m, HyperParams(n_trees=10, max_depth=6), seed=1)
        grid = np.random.default_rng(2).normal(size=(50, m.n_features)) * 3
        preds = forest.predict(grid)
        assert preds.min() >= m.y.min() - 1e-9
        assert preds.max() <= m.y.max() + 1e-9

    def test_same_seed_bit_identical(self):
        m = self._data()
        a = fit_forest(m, HyperParams(n_trees=5, max_depth=5), seed=42)
        b = fit_forest(m, HyperParams(n_trees=5, max_depth=5), seed=42)
        assert model_to_doc(a) == model_to_doc(b)

    def test_different_seed_differs(self):
        m = self._data()
        a = fit_forest(m, HyperParams(n_trees=5, max_depth=5), seed=1)
        b = fit_forest(m, HyperParams(n_trees=5, max_depth=5), seed=2)
        assert model_to_doc(a) != model_to_doc(b)

    def test_forest_prediction_is_mean_of_trees(self):
        m = self._data()
        forest = fit_forest(m, HyperParams(n_trees=7, max_depth=4), seed=3)
        grid = m.x[:10]
        stacked = np.stack([t.predict(grid) for t in forest.trees])
        assert np.allclose(forest.predict(grid), stacked.mean(axis=0), atol=1e-12)

    def test_default_hyperparams_match_fit_family(self):
        m = self._data()
        expected = fit_family("forest", m, HyperParams(), seed=5)
        assert model_to_doc(fit_forest(m, seed=5)) == model_to_doc(expected)

    def test_max_features_validation(self):
        m = self._data(p=3)
        with pytest.raises(ValueError):
            fit_forest(m, HyperParams(n_trees=2, max_features=10))


class TestFitGbm:
    def _data(self, n=50, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        y = 2 * x[:, 0] + x[:, 1] ** 2 + rng.normal(0, 0.2, size=n)
        return _fm(x, y)

    def test_zero_rounds_predict_mean(self):
        m = self._data()
        model = fit_gbm(m, HyperParams(n_rounds=0))
        assert np.allclose(model.predict(m.x), m.y.mean())
        # unlike a forest without trees, a gbm without trees loads
        assert model_to_doc(model_from_doc(model_to_doc(model))) == model_to_doc(model)

    def test_training_rmse_non_increasing(self):
        m = self._data()
        losses = []
        for rounds in range(0, 12, 2):
            model = fit_gbm(m, HyperParams(n_rounds=rounds, learning_rate=0.3, max_depth=2))
            err = m.y - model.predict(m.x)
            losses.append(float(err @ err))
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_one_round_full_rate_deep_tree_fits_residuals(self):
        m = _fm([0.0, 1.0, 10.0, 11.0], [1.0, 2.0, 8.0, 9.0])
        model = fit_gbm(m, HyperParams(n_rounds=1, learning_rate=1.0, max_depth=8))
        resid = m.y - model.predict(m.x)
        assert np.max(np.abs(resid)) < 1e-9

    def test_default_hyperparams_match_fit_family(self):
        m = self._data()
        assert model_to_doc(fit_gbm(m)) == model_to_doc(fit_family("gbm", m, HyperParams()))

    def test_base_only_prediction(self):
        model = BoostedModel(10.0, 0.5, [])
        assert predict(model, np.zeros((3, 0)))[0] == 10.0


def _reference_best_split(x, y, idx, features):
    """Slow oracle: a feature-at-a-time scan of the floats. Returns (gain,
    feature, threshold, left_order, right_order), the orders indexing into
    idx, for the first feature and threshold whose gain is within
    1e-12 * parent_sse of the best, or None when no gain exceeds MIN_GAIN *
    parent_sse."""
    n = idx.size
    node_y = y[idx] - y[idx].mean()
    total_sum = node_y.sum()
    parent_sse = max(float(node_y @ node_y) - total_sum * total_sum / n, 0.0)

    scans = []
    for j in features:
        xs = x[idx, j]
        order = np.argsort(xs, kind="stable")
        sx = xs[order]
        sy = node_y[order]
        k = np.arange(1, n, dtype=np.float64)
        gains = n / (k * (n - k)) * (np.cumsum(sy)[:-1] - k * total_sum / n) ** 2
        gains[(sx[1:] == sx[:-1]) | (gains <= rentlab.models.tree.MIN_GAIN * parent_sse)] = -np.inf
        scans.append((j, gains, sx, order))
    best = max((float(g.max()) for _, g, _, _ in scans if g.size), default=-np.inf)
    if best == -np.inf:
        return None
    for j, gains, sx, order in scans:
        near = np.flatnonzero(gains >= best - 1e-12 * parent_sse)
        if near.size:
            pos = int(near[0])
            a, b = float(sx[pos]), float(sx[pos + 1])
            thr = (a + b) / 2.0
            if not (a <= thr < b):
                thr = a
            return float(gains[pos]), j, thr, order[: pos + 1], order[pos + 1 :]


def _reference_fit_tree(m, hp=HyperParams(), max_features=None, rng=None):
    """Slow oracle: grow the tree node by node in level order, left to
    right, drawing each splittable node's features in that order, then
    number the nodes in preorder."""
    x = np.asarray(m.x, dtype=np.float64)
    y = np.asarray(m.y, dtype=np.float64)
    if rng is None:
        rng = np.random.default_rng(0)
    p = x.shape[1]
    nodes, queue = [], deque([(np.arange(m.n_rows), 0, None, None)])
    while queue:
        idx, depth, parent, side = queue.popleft()
        node_y = y[idx]
        node = {"feature": -1, "threshold": 0.0, "value": float(node_y.mean()), "children": None}
        if parent is not None:
            nodes[parent]["children"][side] = len(nodes)
        nodes.append(node)
        if (depth >= hp.max_depth or idx.size < hp.min_samples_split
                or float(node_y.min()) == float(node_y.max())):
            continue
        if max_features is not None and max_features < p:
            features = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            features = np.arange(p)
        found = _reference_best_split(x, y, idx, features)
        if found is None:
            continue
        _, node["feature"], node["threshold"], left_order, right_order = found
        node["children"] = [None, None]
        queue.append((idx[left_order], depth + 1, len(nodes) - 1, 0))
        queue.append((idx[right_order], depth + 1, len(nodes) - 1, 1))

    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if nodes[i]["children"] is not None:
            stack.extend(reversed(nodes[i]["children"]))
    return Tree(**{f.name: [nodes[i][f.name] for i in order] for f in fields(Tree)})


def _sample(m, weight):
    """The rows of m, each repeated as often as its weight says."""
    return m if weight is None else m.take(np.repeat(np.arange(m.n_rows), weight.astype(np.int64)))


def _assert_same_trees(got, want, y):
    """Equal structure and thresholds; values within 1e-12 of the targets'
    largest magnitude, since histogram sums add in another order than the
    reference's scan."""
    assert len(got) == len(want)
    scale = float(np.abs(np.asarray(y, dtype=np.float64)).max(initial=0.0))
    for a, b in zip(got, want):
        for f in ("feature", "threshold"):
            x, z = getattr(a, f), getattr(b, f)
            assert x.dtype == z.dtype and x.tobytes() == z.tobytes(), f
        np.testing.assert_allclose(a.value, b.value, rtol=0, atol=1e-12 * scale)


def _coarse(n, seed):
    """Binary and few-valued columns, a constant column and duplicate rows."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([
        rng.integers(0, 2, n),
        rng.integers(0, 4, n) * 0.5,
        np.full(n, 3.0),
        rng.integers(0, 3, n),
        rng.normal(size=n).round(1),
        np.zeros(n),
    ]).astype(np.float64)
    x[n // 2:] = x[: n - n // 2]  # second half repeats the first
    y = x[:, 0] * 5 + x[:, 1] - x[:, 3] + rng.normal(0, 0.5, n).round(2)
    return _fm(x, y)


def _continuous(n, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    return _fm(x, x[:, 0] * 3 + np.sin(x[:, 1] * 2) + x[:, 2] * x[:, -1] + rng.normal(0, 0.3, n))


def _same_partition(seed, half=50):
    """Features 0 and 1 both split the rows into the same halves, each
    sorting a half in its own order, so their best gains differ only by the
    rounding of their cumulative sums."""
    rng = np.random.default_rng(seed)
    y = np.concatenate([rng.normal(100, 30, half), rng.normal(300, 30, half)])
    x = np.empty((2 * half, 2))
    for j in range(2):
        x[:half, j] = rng.permutation(half)
        x[half:, j] = 100 + rng.permutation(half)
    return _fm(x, y)


class TestBlockedSplitSearchMatchesReference:
    """Level-wise histogram growth grows the trees that the feature-at-a-time
    scan grows node by node, through fit_tree, fit_forest and fit_gbm; the
    forest and gbm are compared with their loops over that scan."""

    def _check_all(self, m, hp, max_features=None):
        _assert_same_trees(
            [fit_tree(m, hp, max_features, rng=np.random.default_rng(4))],
            [_reference_fit_tree(m, hp, max_features, rng=np.random.default_rng(4))], m.y,
        )
        _assert_same_trees(fit_forest(m, hp, seed=2).trees, _reference_forest(m, hp, 2), m.y)
        _assert_same_trees(fit_gbm(m, hp).trees, _reference_gbm(m, hp), m.y)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_continuous(self, seed):
        hp = HyperParams(max_depth=6, n_trees=3, n_rounds=4, learning_rate=0.3)
        self._check_all(_continuous(150, 7, seed), hp)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_coarse_duplicates_and_constant_columns(self, seed):
        hp = HyperParams(max_depth=8, n_trees=3, n_rounds=4, learning_rate=0.5)
        self._check_all(_coarse(90, seed), hp)

    @pytest.mark.parametrize("seed, relation", [(1, 1), (0, 0), (2, -1)])
    def test_same_partition_goes_to_feature_0(self, seed, relation):
        m = _same_partition(seed)
        x, y, idx = m.x, m.y, np.arange(m.n_rows)
        g0 = _reference_best_split(x, y, idx, np.array([0]))[0]
        g1 = _reference_best_split(x, y, idx, np.array([1]))[0]
        # the fixture does what it says: nearly equal gains, ordered as named
        assert g0 == pytest.approx(g1, rel=1e-14) and np.sign(g0 - g1) == relation
        # gains that close are a tie, which the lower feature wins
        assert fit_tree(m, HyperParams(max_depth=6)).feature[0] == 0
        self._check_all(m, HyperParams(max_depth=6, n_trees=2, n_rounds=3))

    @pytest.mark.parametrize("max_features, min_samples_split", [(1, 2), (3, 5), (5, 12)])
    def test_feature_subsets_and_min_samples_split(self, max_features, min_samples_split):
        m = _continuous(120, 6, max_features)
        hp = HyperParams(max_depth=7, min_samples_split=min_samples_split, n_trees=3,
                         n_rounds=3, max_features=max_features)
        self._check_all(m, hp, max_features=max_features)

    @pytest.mark.parametrize("n", [2, 3, 5, 40, 700, rentlab.models.tree._BLOCK_CELLS + 3])
    def test_node_sizes_up_past_one_feature_per_block(self, n):
        m = _continuous(n, 4, n) if n > 3 else _fm(np.arange(n * 4.0).reshape(n, 4) % 3, np.arange(n))
        self._check_all(m, HyperParams(max_depth=3, n_trees=2, n_rounds=2))

    @pytest.mark.parametrize("cells", [1, 90, 1 << 30])
    def test_block_cells_extremes(self, monkeypatch, cells):
        # 1: one feature per key block; 90: the root's n rows, one feature
        # per block there and several deeper; in both, deeper levels sort
        # the keys of features whose grid outgrows the rows. 2^30: one
        # block per level, every feature on the grid
        monkeypatch.setattr(rentlab.models.tree, "_BLOCK_CELLS", cells)
        sorted_calls = []
        sorted_cells = rentlab.models.tree._sorted_cells
        monkeypatch.setattr(rentlab.models.tree, "_sorted_cells",
                            lambda *a: sorted_calls.append(a) or sorted_cells(*a))
        hp = HyperParams(max_depth=8, n_trees=3, n_rounds=4, learning_rate=0.5)
        self._check_all(_coarse(90, 5), hp)
        self._check_all(_same_partition(0, half=45), hp)
        assert bool(sorted_calls) == (cells < 1 << 30)

    @pytest.mark.parametrize("cells", [0, 1 << 30])
    def test_with_and_without_sibling_subtraction(self, monkeypatch, cells):
        # 0: no level keeps its histograms, so every child is histogrammed
        # from its rows; 2^30: every level keeps them
        monkeypatch.setattr(rentlab.models.tree, "_KEPT_CELLS", cells)
        hp = HyperParams(max_depth=8, n_trees=3, n_rounds=4, learning_rate=0.5, max_features=3)
        self._check_all(_coarse(90, 3), hp)
        self._check_all(_continuous(200, 5, 8), hp, max_features=3)

    def test_sibling_subtraction_beside_sorted_keys(self, monkeypatch):
        # a level keeps its grids only when no feature needs sorted keys, so
        # a child level whose features fit a grid again histograms them all
        monkeypatch.setattr(rentlab.models.tree, "_KEPT_CELLS", 1 << 30)
        monkeypatch.setattr(rentlab.models.tree, "_BLOCK_CELLS", 1)
        hp = HyperParams(max_depth=8, n_trees=3, n_rounds=4, learning_rate=0.5)
        self._check_all(_continuous(200, 5, 8), hp)
        self._check_all(_coarse(90, 3), hp)


class TestLevelCells:
    """The two ways a level finds its occupied (slot, bin) cells agree bit
    for bit: both add a cell's rows in their order."""

    def _level(self, seed, n=300, p=4, m=7):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 40, (n, p)) * rng.choice([0.5, 1.0, 3.0], p)
        coded = rentlab.models.tree._CodedMatrix.of(x)
        n = coded.codes.shape[1]  # the distinct rows
        rows = np.sort(rng.choice(n, size=n - 40, replace=False))
        slot = rng.integers(0, m, rows.size)
        w = rng.integers(1, 4, rows.size).astype(np.float64)
        return coded, rows, slot, (w, w * rng.normal(size=rows.size)), m

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_and_sorted_keys_find_the_same_cells(self, seed):
        coded, rows, slot, weights, m = self._level(seed)
        tree = rentlab.models.tree
        for j0, j1 in ((0, 1), (1, 3), (0, 4)):
            hist = tree._histogram(coded.codes, coded.offsets, j0, j1, rows, slot, weights, m)
            grid = tree._grid_cells(hist, coded.offsets[j0])
            keys = tree._sorted_cells(coded.codes, coded.offsets, j0, j1, rows, slot, weights, m)
            for a, b in zip(grid, keys):
                assert np.array_equal(a, b)

    def test_keys_too_wide_to_pack_sort_stably(self):
        # with more slots than a key and its position fit in 63 bits, the
        # keys are sorted stably instead of packed
        coded, rows, slot, weights, m = self._level(3)
        tree = rentlab.models.tree
        packed = tree._sorted_cells(coded.codes, coded.offsets, 0, 4, rows, slot, weights, m)
        stable = tree._sorted_cells(coded.codes, coded.offsets, 0, 4, rows, slot, weights, 1 << 62)
        for a, b in zip(packed, stable):
            assert np.array_equal(a, b)


class TestMergeNearBest:
    def _group(self, gains, bins):
        """One group's thresholds, all in slot 0."""
        bins = np.array(bins)
        return np.array(gains), np.zeros(bins.size, dtype=np.intp), bins, bins + 1

    def test_a_later_rise_outlives_the_first_near_tie(self):
        # tolerance 1: after the second group slot 0 keeps thresholds 1
        # (gain 10) and 2 (10.5); the third group's 11.2 puts threshold 1
        # out of reach, so threshold 2 must still be there
        merge, tol = rentlab.models.tree._merge_near_best, np.ones(1)
        picks = merge([self._group([10.0, 10.5], [1, 2]), self._group([9.0], [5])], tol)
        assert picks[2].tolist() == [1, 2]
        picks = merge([picks, self._group([11.2], [7])], tol)
        assert picks[2].tolist() == [2, 7]

    def test_a_threshold_tying_the_one_before_it_is_dropped(self):
        # two groups' best thresholds tie exactly: the earlier one (by
        # feature, then threshold) wins wherever the later would, so only
        # it is kept, and a tie in a later merge is dropped too
        merge, tol = rentlab.models.tree._merge_near_best, np.ones(1)
        picks = merge([self._group([10.0], [1]), self._group([10.0], [5])], tol)
        assert picks[2].tolist() == [1]
        assert picks[0].tolist() == [10.0] and picks[3].tolist() == [2]
        picks = merge([picks, self._group([10.0, 10.5], [7, 8])], tol)
        assert picks[2].tolist() == [1, 8]


def _reference_forest(m, hp, seed):
    """fit_forest's loop over the float rows of each bootstrap sample, every
    tree grown by the reference scan."""
    mf = hp.max_features or auto_max_features(m.n_features)
    trees = []
    for t in range(hp.n_trees):
        rng = rentlab.models.forest._tree_rng(seed, t)
        weight = np.bincount(rng.integers(0, m.n_rows, size=m.n_rows), minlength=m.n_rows)
        trees.append(_reference_fit_tree(_sample(m, weight), hp, mf, rng))
    return trees


def _reference_gbm(m, hp):
    """fit_gbm's loop, every round's tree grown by the reference scan from a
    matrix of the floats and the residuals."""
    pred = np.full(m.n_rows, float(m.y.mean()))
    trees = []
    for _ in range(hp.n_rounds):
        tree = _reference_fit_tree(FeatureMatrix(m.x, m.feature_names, m.y - pred), hp)
        trees.append(tree)
        pred += hp.learning_rate * tree.predict(m.x)
    return trees


# signed zeros, subnormals, adjacent floats (1 + 2^-52 and 1 + 2^-51 have a
# midpoint that rounds up, so the threshold falls back to the lower value)
# and a pair whose sum overflows
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.0, 1.0, 1.0 + 2.0 ** -52,
                1.0 + 2.0 ** -51, 3.0, 1.5e308, 1.7e308, -1.7e308)


@st.composite
def _edge_matrices(draw):
    """Rows drawn with repeats from a few distinct rows of edge floats; some
    examples add a column of 300 distinct values, which codes as uint16."""
    p = draw(st.integers(1, 4))
    distinct = draw(st.integers(1, 8))
    cells = draw(st.lists(st.sampled_from(_EDGE_FLOATS),
                          min_size=distinct * p, max_size=distinct * p))
    n = draw(st.integers(2, 40))
    pick = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    x = np.array(cells).reshape(distinct, p)[pick]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        x = np.column_stack([np.resize(x, (300, p)), rng.permutation(300) * 0.25 - 30.0])
    y = rng.normal(0.0, 10.0, x.shape[0]).round(draw(st.integers(0, 2)))
    return _fm(x, y)


class TestCodedTreesMatchReference:
    """Trees grown level-wise from rank codes match the trees the
    feature-at-a-time scan grows from the floats (see _assert_same_trees),
    through fit_tree, fit_forest and fit_gbm."""

    @settings(max_examples=80, deadline=None)
    @given(m=_edge_matrices(), max_depth=st.integers(0, 6), min_samples_split=st.integers(2, 5),
           max_features=st.integers(0, 5), seed=st.integers(0, 3))
    def test_fit_tree_forest_and_gbm(self, m, max_depth, min_samples_split, max_features, seed):
        mf = min(max_features, m.n_features)
        hp = HyperParams(max_depth=max_depth, min_samples_split=min_samples_split, n_trees=2,
                         n_rounds=3, learning_rate=0.5, max_features=mf)
        _assert_same_trees([fit_tree(m, hp, mf or None, rng=np.random.default_rng(seed))],
                           [_reference_fit_tree(m, hp, mf or None, rng=np.random.default_rng(seed))],
                           m.y)
        _assert_same_trees(fit_forest(m, hp, seed=seed).trees, _reference_forest(m, hp, seed), m.y)
        _assert_same_trees(fit_gbm(m, hp).trees, _reference_gbm(m, hp), m.y)

    @settings(max_examples=40, deadline=None)
    @given(m=_edge_matrices(), data=st.data(), max_depth=st.integers(1, 6))
    def test_duplicate_column_is_never_split_on(self, m, data, max_depth):
        # a copy of column j later in the matrix scores every threshold as
        # column j does, so it always ties and column j wins
        j = data.draw(st.integers(0, m.n_features - 1))
        at = data.draw(st.integers(j + 1, m.n_features))
        x = np.insert(m.x, at, m.x[:, j], axis=1)
        dup = _fm(x, m.y)
        hp = HyperParams(max_depth=max_depth, n_trees=2, n_rounds=3, learning_rate=0.5,
                         max_features=dup.n_features)
        trees = [fit_tree(dup, hp), *fit_forest(dup, hp, seed=1).trees, *fit_gbm(dup, hp).trees]
        for tree in trees:
            assert at not in tree.feature

    def test_uint16_codes_on_continuous_data(self):
        m = _continuous(400, 3, 9)
        assert code_columns(m.x)[0].dtype == np.uint16
        hp = HyperParams(max_depth=6, n_trees=2, n_rounds=3, max_features=2)
        _assert_same_trees(fit_forest(m, hp, seed=5).trees, _reference_forest(m, hp, 5), m.y)
        _assert_same_trees(fit_gbm(m, hp).trees, _reference_gbm(m, hp), m.y)


def _bootstrap(n, seed):
    """The rows a bootstrap sample of n draws holds and their multiplicities."""
    weight = np.bincount(np.random.default_rng(seed).integers(0, n, n), minlength=n)
    rows = weight.nonzero()[0]
    return rows, weight[rows].astype(np.float64)


class TestBatchedTrees:
    """Trees grown together in one batch over one coding of the matrix are
    the trees each grows alone: equal in every array and in the values
    their rows fit."""

    def _specs(self, m, kind):
        """Six trees' (rows, weights, targets, seed): the training rows of
        three-fold cross-validation, bootstrap samples, or bootstrap samples
        with residual-like targets."""
        n, y = m.n_rows, m.y
        specs = []
        for t in range(6):
            if kind == "folds":
                rows = np.flatnonzero(np.arange(n) % 3 != t % 3)
                w = np.ones(rows.size)
            else:
                rows, w = _bootstrap(n, t)
            target = y[rows] if kind != "targets" else y[rows] - t * np.sin(m.x[rows, 0])
            specs.append((rows, w, target, t))
        return specs

    def _grow(self, coded, hp, specs, max_features):
        """Grow the specs' trees, each drawing from a generator of its seed."""
        fresh = [(*spec[:3], np.random.default_rng(spec[3])) for spec in specs]
        return list(rentlab.models.tree.grow_trees(coded, hp, fresh, max_features))

    @pytest.mark.parametrize("kind", ["folds", "bootstrap", "targets"])
    @pytest.mark.parametrize("data, max_features", [("coarse", None), ("coarse", 3),
                                                    ("continuous", None), ("continuous", 2)])
    def test_batch_matches_trees_grown_alone(self, monkeypatch, kind, data, max_features):
        m = _coarse(90, 1) if data == "coarse" else _continuous(120, 5, 2)
        hp = HyperParams(max_depth=6, min_samples_split=3)
        tree = rentlab.models.tree
        coded = tree._CodedMatrix.of(m.x)
        specs = self._specs(m, kind)
        batches = []
        grow_levels = tree._grow_levels
        monkeypatch.setattr(tree, "_grow_levels", lambda c, h, batch, mf: batches.append(len(batch))
                            or grow_levels(c, h, batch, mf))
        together = self._grow(coded, hp, specs, max_features)
        alone = [self._grow(coded, hp, [spec], max_features)[0] for spec in specs]
        assert batches == [6] + [1] * 6
        for (got, got_fit), (want, want_fit), (rows, *_) in zip(together, alone, specs):
            for f in fields(Tree):
                assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name
            assert got_fit.tobytes() == want_fit.tobytes()
            # the fitted values are the tree's predictions for its rows
            assert got_fit.tobytes() == got.predict(m.x[rows]).tobytes()

    @pytest.mark.parametrize("max_features", [None, 2])
    def test_fold_trees_match_trees_of_the_fold_matrix(self, max_features):
        # a fold's tree over the whole matrix's coding is the tree fit_tree
        # grows on m.take(rows), as cross-validation once fit it
        m = _coarse(90, 4)
        hp = HyperParams(max_depth=5)
        specs = self._specs(m, "folds")
        grown = self._grow(rentlab.models.tree._CodedMatrix.of(m.x), hp, specs, max_features)
        for (got, _), (rows, _, _, seed) in zip(grown, specs):
            want = fit_tree(m.take(rows), hp, max_features, rng=np.random.default_rng(seed))
            for f in fields(Tree):
                assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name

    def test_batches_stay_under_the_pair_cap(self, monkeypatch):
        # a tree counts the matrix's 60 distinct rows, so with room for 130
        # six trees grow in three batches, each tree as it grows alone
        m = _continuous(60, 3, 5)
        tree = rentlab.models.tree
        coded = tree._CodedMatrix.of(m.x)
        specs = self._specs(m, "folds")
        alone = [self._grow(coded, HyperParams(max_depth=4), [spec], None)[0][0] for spec in specs]
        monkeypatch.setattr(tree, "_BATCH_PAIRS", 130)
        batches = []
        grow_levels = tree._grow_levels
        monkeypatch.setattr(tree, "_grow_levels", lambda c, h, batch, mf: batches.append(len(batch))
                            or grow_levels(c, h, batch, mf))
        together = self._grow(coded, HyperParams(max_depth=4), specs, None)
        assert batches == [2, 2, 2]
        for (got, _), want in zip(together, alone):
            for f in fields(Tree):
                assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name

    @settings(max_examples=60, deadline=None)
    @given(m=_edge_matrices(), k=st.integers(2, 5), max_depth=st.integers(1, 6),
           min_samples_split=st.integers(2, 8))
    def test_repeated_rows_fit_as_their_weight(self, m, k, max_depth, min_samples_split):
        hp = HyperParams(max_depth=max_depth, min_samples_split=min_samples_split)
        repeated = m.take(np.repeat(np.arange(m.n_rows), k))
        spec = (np.arange(m.n_rows), np.full(m.n_rows, float(k)), m.y, None)
        ((weighted, _),) = rentlab.models.tree.grow_trees(
            rentlab.models.tree._CodedMatrix.of(m.x), hp, [spec])
        _assert_same_trees([weighted], [fit_tree(repeated, hp)], repeated.y)


class TestCodeColumns:
    def _check_codes(self, x):
        codes, values = code_columns(x)
        assert codes.shape == (x.shape[1], x.shape[0])
        for j in range(x.shape[1]):
            col, c = x[:, j], codes[j].astype(np.int64)
            # equal exactly where the floats are equal, in the floats' order
            assert np.array_equal(c[:, None] == c[None, :], col[:, None] == col[None, :])
            assert np.array_equal(c[:, None] < c[None, :], col[:, None] < col[None, :])
            assert np.array_equal(values[j][c], col)
            assert np.array_equal(np.argsort(c, kind="stable"), np.argsort(col, kind="stable"))
        return codes, values

    def test_signed_zeros_share_a_code(self):
        x = np.array([[0.0], [-0.0], [5e-324], [-5e-324], [0.0], [-0.0]])
        codes, values = self._check_codes(x)
        assert codes[0].tolist() == [1, 1, 2, 0, 1, 1]
        assert values[0].size == 3

    def test_ranks_of_duplicates_and_edge_floats(self):
        rng = np.random.default_rng(0)
        x = rng.choice(np.array(_EDGE_FLOATS), size=(60, 3))
        x[:, 2] = np.round(rng.normal(size=60), 1)
        self._check_codes(x)

    def test_ranks_are_dense_per_column(self):
        codes, values = self._check_codes(np.array([[5.0, 1.0], [5.0, -2.0], [7.5, 1.0]]))
        assert codes.tolist() == [[0, 0, 1], [1, 0, 1]]
        assert [v.tolist() for v in values] == [[5.0, 7.5], [-2.0, 1.0]]

    @pytest.mark.parametrize("distinct, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                                  (65536, np.uint16), (65537, np.uint32)])
    def test_narrowest_dtype_holds_the_widest_column(self, distinct, dtype):
        x = np.zeros((distinct, 2))
        x[:, 1] = np.arange(distinct)[::-1] * 0.5
        codes, values = code_columns(x)
        assert codes.dtype == dtype
        assert values[1].size == distinct and codes[1, 0] == distinct - 1

    def test_no_columns(self):
        codes, values = code_columns(np.empty((4, 0)))
        assert codes.shape == (0, 4) and values == ()


class TestSplitSearchMemory:
    """A forest or gbm fit over a 20,000 x 60 matrix of about 4,500
    distinct values a column holds its codes, their distinct values and
    each bin's feature, one weight vector and a level's row state, and
    histogram temporaries bounded by the larger of _BLOCK_CELLS and the
    rows, however deep the tree: a copy of x per tree, histograms of every
    column at once, or a dense (node, bin) grid at a deep level, would not
    fit. So does a cross-validated forest whose trees grow in batches."""

    @pytest.fixture(scope="class")
    def m(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20_000, 60)).round(3)
        return _fm(x, x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(size=20_000))

    def _peak(self, fit):
        tracemalloc.start()
        try:
            fit()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _check(self, m, peak):
        codes, values = code_columns(m.x)
        n_bins = sum(v.size for v in values)
        held = codes.nbytes + 9 * n_bins
        # the weights and, per level, the rows of its open nodes with their
        # nodes, weights and targets: about sixteen 8-byte arrays over the rows
        rows = 16 * 8 * m.n_rows
        # one group's keys or (node, bin) grid, its occupied cells and their
        # scores: about sixteen 8-byte arrays over the larger of a key block
        # and the rows
        cells = 16 * 8 * max(rentlab.models.tree._BLOCK_CELLS, m.n_rows)
        # no level keeps its histograms: one node's exceed _KEPT_CELLS
        assert n_bins > rentlab.models.tree._KEPT_CELLS
        assert rows + cells < m.x.nbytes
        assert peak < held + rows + cells

    def test_forest(self, m):
        # at the default max_depth of 8
        self._check(m, self._peak(lambda: fit_forest(m, HyperParams(n_trees=2), seed=0)))

    def test_gbm(self, m):
        self._check(m, self._peak(lambda: fit_gbm(m, HyperParams(n_rounds=2))))

    def test_cross_validated_forest(self, monkeypatch):
        # 20,000 rows repeating 5,000 distinct rows: a fold's bootstrap
        # sample holds about 6,300 rows, so three trees share a batch, and
        # the folds are weights over one coding, not copies of their rows
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5_000, 60)).round(3)[rng.integers(0, 5_000, 20_000)]
        m = _fm(x, x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(size=20_000))
        batches = []
        tree = rentlab.models.tree
        grow_levels = tree._grow_levels
        monkeypatch.setattr(tree, "_grow_levels", lambda c, h, batch, mf: batches.append(len(batch))
                            or grow_levels(c, h, batch, mf))
        hp = HyperParams(n_trees=3, max_depth=4)
        self._check(m, self._peak(lambda: cross_validate(m, "forest", hp, k=2, seed=0)))
        assert batches == [3, 3]


class TestModelStageMemory:
    """The model stages on a 20,000 x 61 matrix read the one design matrix
    they are given or build: the join writes each column straight into it,
    the split is two row arrays, and a linear fit reads its rows in blocks
    of at most _BLOCK_CELLS cells. The traced memory each stage adds stays
    below a share of the matrix's bytes; a copy of the train rows, a centred
    copy of them, or a gathered block per side of the join would not fit."""

    N_LISTINGS, N_DAYS, N_EXTRA = 100, 200, 44

    @pytest.fixture(scope="class")
    def tables(self):
        """Cleaned listings and calendar: 100 listings with coordinates (two
        features, and thirteen POI distances) and 44 numeric columns, no
        amenities, each on 200 days (month and day of week)."""
        rng = np.random.default_rng(0)
        n = self.N_LISTINGS
        data = {"id": ("integer", list(range(1, n + 1))),
                "latitude": ("numeric", (30.27 + rng.uniform(-0.1, 0.1, n)).round(5).tolist()),
                "longitude": ("numeric", (-97.74 + rng.uniform(-0.1, 0.1, n)).round(5).tolist()),
                "amenities": ("text", [""] * n)}
        for j in range(self.N_EXTRA):
            data[f"f{j:02d}"] = ("numeric", rng.normal(size=n).round(3).tolist())
        days = [dt.date(2023, 1, 1) + dt.timedelta(days=i) for i in range(self.N_DAYS)]
        calendar = Table.from_dict({
            "listing_id": ("integer", np.repeat(np.arange(1, n + 1), self.N_DAYS).tolist()),
            "date": ("date", days * n),
            "price": ("numeric", rng.uniform(50.0, 500.0, n * self.N_DAYS).round(2).tolist()),
        })
        return Table.from_dict(data), calendar

    @pytest.fixture(scope="class")
    def matrix(self, tables, tmp_path_factory):
        return stage_featurize(*tables, str(tmp_path_factory.mktemp("feat") / "features.csv"))

    def _added(self, stage):
        """The traced peak while stage runs, less what was traced at its start."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stage()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def _bytes(self, m):
        assert m.x.shape == (self.N_LISTINGS * self.N_DAYS, 2 + 13 + self.N_EXTRA + 2)
        return m.x.nbytes + m.y.nbytes

    def _block_and_rows(self, m):
        # one block buffer, and about eight vectors over the rows (y, the
        # centred y, a column of a block, the split, predictions)
        return 8 * rentlab.models.linear._BLOCK_CELLS + 8 * 8 * m.n_rows

    def test_featurize(self, tables, matrix, tmp_path):
        added = self._added(lambda: stage_featurize(*tables, str(tmp_path / "features.csv")))
        # the matrix itself, plus half of it for the tables the stage builds
        # and the CSV writer's blocks
        assert added < 1.5 * self._bytes(matrix)

    def test_evaluate(self, matrix, tmp_path):
        models = Models(families=("ols", "lasso"))
        added = self._added(lambda: stage_evaluate(matrix, str(tmp_path), Eval(), models, seed=1))
        # the test rows (a fifth of the matrix) are copied to be scored
        bound = self._block_and_rows(matrix) + 0.2 * self._bytes(matrix)
        assert bound < 0.6 * self._bytes(matrix)
        assert added < bound

    def test_train(self, matrix, tmp_path):
        added = self._added(lambda: stage_train(matrix, str(tmp_path / "model.json"), "lasso",
                                                HyperParams(), seed=1))
        bound = self._block_and_rows(matrix)
        assert bound < 0.4 * self._bytes(matrix)
        assert added < bound


class TestHyperParams:
    def test_defaults_valid(self):
        HyperParams()

    def test_range_validation(self):
        with pytest.raises(ValueError):
            HyperParams(alpha=-1)
        with pytest.raises(ValueError):
            HyperParams(l1_ratio=1.5)
        with pytest.raises(ValueError):
            HyperParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            HyperParams(min_samples_split=1)
        with pytest.raises(ValueError):
            HyperParams(learning_rate=1.5)
        with pytest.raises(ValueError):
            HyperParams(n_rounds=-1)
        with pytest.raises(ValueError):
            HyperParams(n_trees=0)
        with pytest.raises(ValueError):
            HyperParams(max_depth=-1)

    def test_dict_round_trip(self):
        hp = HyperParams(alpha=0.5, n_trees=7)
        assert HyperParams.from_dict(hp.to_dict()) == hp

    def test_from_dict_rejects_unknown_keys(self):
        assert HyperParams.from_dict({"alpha": 0.25}).alpha == 0.25
        with pytest.raises(ValueError, match="max_depht"):
            HyperParams.from_dict({"alpha": 0.25, "max_depht": 3})


class TestPredictColumns:
    def _model_and_data(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(30, 3))
        m = _fm(x, x @ np.array([1.0, -2.0, 0.5]), ("a", "b", "c"))
        return fit_gbm(m, HyperParams(n_rounds=3, max_depth=2)), m

    def test_same_columns_predict(self):
        model, m = self._model_and_data()
        assert np.array_equal(predict(model, m), predict(model, m.x))

    def test_other_columns_fail_naming_them(self):
        model, m = self._model_and_data()
        other = FeatureMatrix(np.column_stack([m.x[:, :2], m.x[:, :1]]), ("a", "b", "d"), m.y)
        with pytest.raises(ValueError, match=r"missing \['c'\], unexpected \['d'\]"):
            predict(model, other)
        with pytest.raises(ValueError, match=r"missing \['c'\]$"):
            predict(model, m.select(["a", "b"]))

    def test_reordered_columns_fail(self):
        model, m = self._model_and_data()
        with pytest.raises(ValueError, match="order"):
            predict(model, m.select(["b", "a", "c"]))

    def test_array_input_checks_count(self):
        model, m = self._model_and_data()
        with pytest.raises(ValueError, match="expects 3 features, got 2"):
            predict(model, m.x[:, :2])


def _seven_lists(doc, tree, n_rows):
    """A tree document in the layout that also stored each node's left and
    right child, row count and gain, in their old key order. The row counts
    and gains are stand-ins of the old types, since nothing reads them."""
    split = tree.feature >= 0
    return {"feature": doc["feature"], "threshold": doc["threshold"],
            "left": tree.left.tolist(), "right": tree.right.tolist(), "value": doc["value"],
            "n_samples": [n_rows] * split.size, "gain": np.where(split, 1.0, 0.0).tolist()}


class TestSerialization:
    def _round_trip(self, model, x, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(predict(model, x), predict(loaded, x))
        # the document survives a second encode cycle untouched
        assert model_to_doc(loaded) == model_to_doc(model)

    def test_linear_round_trip(self, tmp_path):
        from rentlab.models import fit_ols

        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        m = _fm(x, rng.normal(size=20))
        self._round_trip(fit_ols(m), x, tmp_path)

    def test_tree_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        m = _fm(x, rng.normal(size=30))
        self._round_trip(fit_tree(m, HyperParams(max_depth=5)), x, tmp_path)

    def test_forest_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        m = _fm(x, rng.normal(size=30))
        self._round_trip(fit_forest(m, HyperParams(n_trees=4, max_depth=4), seed=9), x, tmp_path)

    def test_forest_document_of_older_files_loads(self):
        # forest documents once carried a "bootstrap" flag, always true
        rng = np.random.default_rng(4)
        m = _fm(rng.normal(size=(30, 2)), rng.normal(size=30))
        doc = model_to_doc(fit_forest(m, HyperParams(n_trees=2, max_depth=2), seed=1))
        assert "bootstrap" not in doc
        assert model_to_doc(model_from_doc({**doc, "bootstrap": True})) == doc

    def test_gbm_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 2))
        m = _fm(x, rng.normal(size=30))
        hp = HyperParams(n_rounds=5, learning_rate=0.5, max_depth=3)
        self._round_trip(fit_gbm(m, hp), x, tmp_path)

    def test_family_tag_self_describing(self, tmp_path):
        m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 5.0])
        path = tmp_path / "model.json"
        save_model(fit_tree(m, HyperParams(max_depth=2)), path)
        doc = json.loads(path.read_text())
        assert doc["family"] == "tree"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            model_from_doc({"family": "perceptron"})

    @pytest.mark.parametrize("doc, message", [
        ([], r"model document is not a JSON object: \[\]"),
        ("x", "model document is not a JSON object: 'x'"),
        ({"family": []}, r"model document\.family is not a JSON string: \[\]"),
        ({"trees": []}, r"model document\.family is not a JSON string: None"),
    ])
    def test_document_not_an_object_or_family_not_a_string_named(self, tmp_path, capsys, doc,
                                                                  message):
        with pytest.raises(SchemaError, match=message):
            model_from_doc(doc)
        m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 5.0])
        matrix_to_csv(m, tmp_path / "features.csv")
        (tmp_path / "model.json").write_text(json.dumps(doc))
        status = main(["explain", "--model", str(tmp_path / "model.json"),
                       "--data", str(tmp_path / "features.csv"),
                       "--out", str(tmp_path / "shap.csv")])
        assert status == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and re.search(message, err)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_saved_bytes_are_json_dump_bytes(self, family, tmp_path):
        # save_model encodes with json.dumps; json.dump writes the same text
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 3))
        m = _fm(x, x @ [1.0, -2.0, 0.5] + rng.normal(size=40))
        model = fit_family(family, m, HyperParams(n_trees=3, n_rounds=4, max_depth=3), seed=1)
        save_model(model, tmp_path / "model.json")
        dumped = io.StringIO()
        json.dump(model_to_doc(model), dumped)
        assert (tmp_path / "model.json").read_bytes() == dumped.getvalue().encode("utf-8")

    def test_tree_document_is_flat_arrays(self):
        m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 5.0])
        doc = model_to_doc(fit_tree(m, HyperParams(max_depth=2)))
        assert doc == {
            "family": "tree",
            "feature": [0, -1, -1],
            "threshold": [1.5, 0.0, 0.0],
            "value": [3.0, 1.0, 5.0],
        }

    @pytest.mark.parametrize("family", ["tree", "forest", "gbm"])
    def test_seven_list_documents_load_and_rewrite_as_three(self, family, tmp_path):
        # documents written when every tree also stored left, right,
        # n_samples and gain load to the same trees, and save without them
        if family == "tree":
            m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 5.0])
            model = fit_tree(m, HyperParams(max_depth=2))
            old = {"family": "tree", "feature": [0, -1, -1], "threshold": [1.5, 0.0, 0.0],
                   "left": [1, 1, 2], "right": [2, 1, 2], "value": [3.0, 1.0, 5.0],
                   "n_samples": [4, 2, 2], "gain": [16.0, 0.0, 0.0]}
        else:
            rng = np.random.default_rng(8)
            x = rng.normal(size=(40, 3))
            m = _fm(x, x @ [1.0, -2.0, 0.5] + rng.normal(size=40))
            model = fit_family(family, m, HyperParams(n_trees=3, n_rounds=4, max_depth=3), seed=1)
            old = model_to_doc(model)
            old["trees"] = [_seven_lists(doc, tree, m.n_rows) for doc, tree in zip(old["trees"], model.trees)]
        (tmp_path / "old.json").write_text(json.dumps(old))
        loaded = load_model(tmp_path / "old.json")
        assert predict(loaded, m.x).tobytes() == predict(model, m.x).tobytes()
        save_model(loaded, tmp_path / "new.json")
        dropped = ("left", "right", "n_samples", "gain")
        for tree in old.get("trees", [old]):
            for key in dropped:
                del tree[key]
        assert (tmp_path / "new.json").read_bytes() == json.dumps(old).encode("utf-8")
        assert json.loads((tmp_path / "new.json").read_text()) == model_to_doc(model)

    def test_nested_tree_document_rejected_by_name(self):
        nested = {"kind": "leaf", "value": 2.0, "n": 3}
        with pytest.raises(ValueError, match=r"gbm model document\.trees\[0\] lacks the fields "
                                             r"\['feature', 'threshold'\]"):
            model_from_doc({"family": "gbm", "base": 1.0, "learning_rate": 0.1, "trees": [nested]})
        with pytest.raises(ValueError, match=r"tree model document lacks the fields "
                                             r"\['feature', 'threshold', 'value'\]"):
            model_from_doc({"family": "tree", "root": nested})

    def test_malformed_tree_arrays_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Tree([0, -1, -1], [0.5], [0.0, 1.0, 2.0])

    def test_fractional_feature_rejected_by_name(self):
        # it once loaded as a split on feature 0
        doc = {"family": "tree", "feature": [0.7, -1, -1], "threshold": [0.5, 0.0, 0.0],
               "value": [1.0, 0.0, 2.0]}
        with pytest.raises(ValueError, match=r"tree model document\.feature holds .* not 0\.7"):
            model_from_doc(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"family": "tree", "feature": ["a", -1, -1], "threshold": [0.5, 0.0, 0.0], "value": [1.0, 0.0, 2.0]},
         "tree model document.feature is not a list of finite numbers"),
        ({"family": "tree", "feature": [0, -1, -1], "threshold": [0.5, {}, 0.0], "value": [1.0, 0.0, 2.0]},
         "tree model document.threshold is not a list of finite numbers"),
        ({"family": "gbm", "base": 1.0, "learning_rate": 0.1,
          "trees": [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "value": [1.0, "b", 2.0]}]},
         r"gbm model document.trees\[0\].value is not a list of finite numbers"),
        # these once loaded: a null as nan, a numeric string as its number
        ({"family": "tree", "feature": ["0", -1, -1], "threshold": [0.5, 0.0, 0.0], "value": [1.0, 0.0, 2.0]},
         "tree model document.feature is not a list of finite numbers"),
        ({"family": "linear", "intercept": 1.0, "coefficients": [None], "feature_names": ["x0"]},
         "linear model document.coefficients is not a list of finite numbers"),
        ({"family": "tree", "feature": [0, -1, -1], "threshold": [[0.5], 0.0, 0.0], "value": [1.0, 0.0, 2.0]},
         "tree model document.threshold is not a list of finite numbers"),
        # json reads NaN and Infinity: these once loaded and wrote x0,inf or x0,nan to the ranking
        ({"family": "linear", "intercept": float("nan"), "coefficients": [float("inf")],
          "feature_names": ["x0"]}, "linear model document.intercept is not a finite number: nan"),
        ({"family": "linear", "intercept": 1.0, "coefficients": [float("inf")], "feature_names": ["x0"]},
         "linear model document.coefficients is not a list of finite numbers: \\[inf\\]"),
        ({"family": "gbm", "base": 1.0, "learning_rate": float("nan"), "feature_names": ["x0"],
          "trees": [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "value": [1.0, 0.0, 2.0]}]},
         "gbm model document.learning_rate is not a finite number: nan"),
        ({"family": "linear", "intercept": "abc", "coefficients": [1.0], "feature_names": ["x0"]},
         "linear model document.intercept is not a finite number: 'abc'"),
        ({"family": "forest", "max_features": 1, "seed": True, "feature_names": ["x0"],
          "trees": [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "value": [1.0, 0.0, 2.0]}]},
         "forest model document.seed is not a JSON int: True"),
        # these once loaded: a string as the feature names, a string as converged
        ({"family": "linear", "intercept": 1.0, "coefficients": [1.0], "feature_names": "a"},
         "linear model document.feature_names is not a JSON list: 'a'"),
        ({"family": "linear", "intercept": 1.0, "coefficients": [1.0], "feature_names": [0]},
         r"linear model document.feature_names\[0\] is not a JSON string: 0"),
        ({"family": "linear", "intercept": 1.0, "coefficients": [1.0, 2.0], "feature_names": "ab",
          "converged": "no"}, "linear model document.converged is not a JSON bool: 'no'"),
        ({"family": "linear", "intercept": 1.0, "coefficients": [1.0], "penalty": 1},
         "linear model document.penalty is not a JSON string: 1"),
        ({"family": "gbm", "base": 1.0, "learning_rate": 0.1, "trees": {"feature": [-1]}},
         "gbm model document.trees is not a JSON list"),
        # these once loaded into int fields; a forest without trees failed in predict
        # with a bare ZeroDivisionError
        ({"family": "linear", "intercept": 1.0, "coefficients": [1.0], "n_iter": 2.5},
         "linear model document.n_iter is not a JSON int: 2.5"),
        ({"family": "forest", "max_features": 1, "seed": 1e300, "feature_names": ["x0"],
          "trees": [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "value": [1.0, 0.0, 2.0]}]},
         "forest model document.seed is not a JSON int: 1e\\+300"),
        ({"family": "forest", "trees": [], "max_features": 1, "seed": 0, "feature_names": ["a", "b"]},
         "forest model document.trees is empty"),
    ])
    def test_non_numeric_array_entry_named(self, tmp_path, capsys, doc, message):
        # a string or an object once failed as a bare "could not convert string to
        # float", and a string intercept as a bare UFuncTypeError
        with pytest.raises(SchemaError, match=message):
            model_from_doc(doc)
        m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 5.0])
        matrix_to_csv(m, tmp_path / "features.csv")
        (tmp_path / "model.json").write_text(json.dumps(doc))
        status = main(["explain", "--model", str(tmp_path / "model.json"),
                       "--data", str(tmp_path / "features.csv"),
                       "--out", str(tmp_path / "shap.csv")])
        assert status == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and re.search(message, err)

    def test_lone_tree_input_width_checked(self, tmp_path, capsys):
        # a lone tree has no feature_names; splitting on column 5 of a
        # two-column matrix once failed with a bare IndexError
        doc = {"family": "tree", "feature": [5, -1, -1], "threshold": [0.5, 0.0, 0.0],
               "value": [1.0, 0.0, 2.0]}
        model = model_from_doc(doc)
        with pytest.raises(ValueError, match="model expects at least 6 features, got 2"):
            predict(model, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="model expects at least 6 features, got 5"):
            predict(model, np.zeros((3, 5)))
        assert predict(model, np.ones((2, 6))).tolist() == [2.0, 2.0]
        m = _fm([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]], [1.0, 1.0, 5.0, 5.0])
        matrix_to_csv(m, tmp_path / "features.csv")
        (tmp_path / "model.json").write_text(json.dumps(doc))
        status = main(["explain", "--model", str(tmp_path / "model.json"),
                       "--data", str(tmp_path / "features.csv"),
                       "--out", str(tmp_path / "shap.csv")])
        assert status == 1
        assert "model expects at least 6 features, got 2" in capsys.readouterr().err

    def test_feature_below_minus_one_rejected_by_name(self):
        doc = {"family": "tree", "feature": [0, -2, -1], "threshold": [0.5, 0.0, 0.0],
               "value": [1.0, 0.0, 2.0]}
        with pytest.raises(ValueError, match=r"tree model document\.feature holds .* not -2"):
            model_from_doc(doc)

    @pytest.mark.parametrize("family", ["forest", "gbm"])
    def test_feature_past_the_feature_names_rejected_by_name(self, family, tmp_path, capsys):
        # it once loaded, then failed in predict with a bare IndexError
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 3))
        m = _fm(x, x @ [1.0, -2.0, 0.5] + rng.normal(size=40))
        doc = model_to_doc(fit_family(family, m, HyperParams(n_trees=2, n_rounds=2, max_depth=2)))
        assert doc["trees"][1]["feature"][0] >= 0
        doc["trees"][1]["feature"][0] = 3
        with pytest.raises(ValueError, match=rf"{family} model document\.feature_names has 3 names, "
                                             "but a tree splits on column 3"):
            model_from_doc(doc)
        matrix_to_csv(m, tmp_path / "features.csv")
        (tmp_path / "model.json").write_text(json.dumps(doc))
        status = main(["explain", "--model", str(tmp_path / "model.json"),
                       "--data", str(tmp_path / "features.csv"),
                       "--out", str(tmp_path / "shap.csv")])
        assert status == 1
        assert "feature_names" in capsys.readouterr().err

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_round_trips(self, family, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        m = _fm(x, x @ [1.0, -2.0, 0.5] + rng.normal(size=40))
        hp = HyperParams(alpha=0.05, l1_ratio=0.3, n_trees=3, n_rounds=4, max_depth=3)
        model = fit_family(family, m, hp, seed=2)
        self._round_trip(model, x, tmp_path)
        doc = model_to_doc(load_model(tmp_path / "model.json"))
        assert doc == json.loads((tmp_path / "model.json").read_text())
        if family in ("lasso", "ridge", "elastic"):
            assert (doc["penalty"], doc["alpha"], doc["l1_ratio"]) == (
                model.penalty, 0.05, {"lasso": 1.0, "ridge": 0.0, "elastic": 0.3}[family])
            assert doc["converged"] is True and doc["n_iter"] == model.n_iter >= 1

    def test_document_keys_in_field_order(self):
        # json.dump writes keys in insertion order, so this order is model.json's byte order
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 2))
        m = _fm(x, rng.normal(size=30))
        hp = HyperParams(n_trees=2, n_rounds=2, max_depth=2)
        arrays = [f.name for f in fields(Tree)]
        expected = {
            "ols": ["family", "intercept", "coefficients", "penalty", "alpha", "l1_ratio",
                    "converged", "n_iter", "feature_names"],
            "forest": ["family", "trees", "max_features", "seed", "feature_names"],
            "gbm": ["family", "base", "learning_rate", "trees", "feature_names"],
        }
        for family, keys in expected.items():
            doc = model_to_doc(fit_family(family, m, hp))
            assert list(doc) == keys
            for tree in doc.get("trees", []):
                assert list(tree) == arrays
        assert list(model_to_doc(fit_tree(m, hp))) == ["family", *arrays]

    def test_missing_field_named(self):
        m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 6.0])
        doc = model_to_doc(fit_family("ols", m, HyperParams()))
        del doc["intercept"], doc["coefficients"], doc["penalty"]
        # a field with a default may be absent; one without may not
        with pytest.raises(SchemaError, match=r"linear model document lacks the fields "
                                              r"\['intercept', 'coefficients'\]"):
            model_from_doc(doc)
        gbm = model_to_doc(fit_gbm(m, HyperParams(n_rounds=1, max_depth=1)))
        del gbm["learning_rate"]
        with pytest.raises(SchemaError, match=r"gbm model document lacks the fields "
                                              r"\['learning_rate'\]"):
            model_from_doc(gbm)

    def test_linear_coefficients_and_names_must_match(self):
        m = _fm([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]], [1.0, 1.0, 5.0, 6.0])
        doc = model_to_doc(fit_family("ols", m, HyperParams()))
        doc["feature_names"] = ["x0"]
        with pytest.raises(ValueError, match="2 coefficients but 1 feature names"):
            model_from_doc(doc)

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc.pop("intercept"), "lacks the fields ['intercept']"),
        (lambda doc: doc["feature_names"].append("x1"), "1 coefficients but 2 feature names"),
    ], ids=["missing_field", "length_mismatch"])
    def test_cli_exits_1_on_malformed_linear_model_json(self, tmp_path, capsys, damage, message):
        m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 6.0])
        matrix_to_csv(m, tmp_path / "features.csv")
        doc = model_to_doc(fit_family("ols", m, HyperParams()))
        damage(doc)
        (tmp_path / "model.json").write_text(json.dumps(doc))
        status = main(["explain", "--model", str(tmp_path / "model.json"),
                       "--data", str(tmp_path / "features.csv"),
                       "--out", str(tmp_path / "shap.csv")])
        assert status == 1
        assert message in capsys.readouterr().err

    def test_cli_exits_1_on_nested_model_json(self, tmp_path, capsys):
        m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 5.0])
        matrix_to_csv(m, tmp_path / "features.csv")
        nested = {"kind": "leaf", "value": 2.0, "n": 3}
        doc = {"family": "forest", "trees": [nested], "max_features": 1, "seed": 0,
               "feature_names": ["x0"]}
        (tmp_path / "model.json").write_text(json.dumps(doc))
        status = main(["explain", "--model", str(tmp_path / "model.json"),
                       "--data", str(tmp_path / "features.csv"),
                       "--out", str(tmp_path / "shap.csv")])
        assert status == 1
        assert "forest model document.trees[0] lacks the fields" in capsys.readouterr().err
        assert not (tmp_path / "shap.csv").exists()
