import json

import numpy as np
import pytest

from rentlab.cli import main
from rentlab.errors import EmptyInputError
from rentlab.features import FeatureMatrix, matrix_to_csv
from rentlab.models import (
    BoostedModel,
    HyperParams,
    Tree,
    fit_forest,
    fit_gbm,
    fit_tree,
    load_model,
    model_from_doc,
    model_to_doc,
    predict,
    save_model,
)


def _fm(x, y, names=None):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    names = names or tuple(f"x{i}" for i in range(x.shape[1]))
    return FeatureMatrix(x, tuple(names), np.asarray(y, dtype=np.float64))


class TestFitTree:
    def test_perfect_split_depth_one(self):
        m = _fm([0.0, 1.0, 10.0, 11.0], [1.0, 1.0, 5.0, 5.0])
        tree = fit_tree(m, max_depth=3)
        assert tree.depth == 1
        leaves = sorted([tree.value[tree.left[0]], tree.value[tree.right[0]]])
        assert leaves == [1.0, 5.0]
        assert np.allclose(tree.predict(m.x), m.y)

    def test_depth_zero_single_leaf(self):
        m = _fm([0.0, 1.0, 2.0], [1.0, 2.0, 6.0])
        tree = fit_tree(m, max_depth=0)
        assert tree.feature[0] == -1
        assert tree.value[0] == pytest.approx(3.0, abs=1e-12)

    def test_constant_target_single_leaf(self):
        m = _fm([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        tree = fit_tree(m, max_depth=5)
        assert tree.feature[0] == -1

    def test_empty_matrix_raises(self):
        m = FeatureMatrix(np.empty((0, 1)), ("a",), np.empty(0))
        with pytest.raises(EmptyInputError):
            fit_tree(m)

    def test_min_samples_split_respected(self):
        m = _fm([0.0, 1.0, 10.0, 11.0], [1.0, 2.0, 5.0, 6.0])
        tree = fit_tree(m, max_depth=10, min_samples_split=5)
        assert tree.feature[0] == -1

    def test_split_sends_low_values_left(self):
        m = _fm([0.0, 1.0, 10.0, 11.0], [1.0, 1.0, 5.0, 5.0])
        tree = fit_tree(m, max_depth=1)
        assert tree.predict(np.array([[tree.threshold[0]]]))[0] == tree.value[tree.left[0]]

    def test_training_row_in_pure_leaf_predicts_its_target(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(32, 3))
        y = rng.normal(size=32)
        m = _fm(x, y)
        tree = fit_tree(m, max_depth=30)
        # deep tree isolates every distinct row: prediction = training target
        assert np.allclose(tree.predict(x), y, atol=1e-12)

    def test_tie_break_prefers_lower_feature_index(self):
        # both features allow the same perfect split
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        m = _fm(x, [1.0, 1.0, 9.0, 9.0])
        tree = fit_tree(m, max_depth=1)
        assert tree.feature[0] == 0

    def test_nodes_are_in_preorder(self):
        rng = np.random.default_rng(6)
        m = _fm(rng.normal(size=(40, 3)), rng.normal(size=40))
        tree = fit_tree(m, max_depth=4)
        nodes = np.arange(tree.feature.size)
        split = tree.feature >= 0
        assert split[0]
        # a left child directly follows its parent; children come later
        assert np.array_equal(tree.left[split], nodes[split] + 1)
        assert np.all(tree.right[split] > tree.left[split])
        assert np.array_equal(
            tree.n_samples[split], tree.n_samples[tree.left[split]] + tree.n_samples[tree.right[split]]
        )
        assert np.all(tree.gain[split] > 0) and np.all(tree.gain[~split] == 0)
        assert np.array_equal(tree.left[~split], nodes[~split])
        assert np.array_equal(tree.right[~split], nodes[~split])
        assert tree.n_samples[0] == m.n_rows and tree.depth == 4


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
        tree = fit_tree(_fm(x, y), max_depth=max_depth)
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
        tree = fit_tree(m, max_depth=2)
        assert tree.predict(np.array([10.5])).tolist() == [5.0]


class TestFitForest:
    def _data(self, n=60, p=4, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        y = x[:, 0] * 3 + np.sin(x[:, 1]) + rng.normal(0, 0.1, size=n)
        return _fm(x, y)

    def test_degenerate_forest_equals_single_tree(self):
        m = self._data()
        forest = fit_forest(m, n_trees=1, max_depth=4, max_features=m.n_features, bootstrap=False)
        tree = fit_tree(m, max_depth=4)
        assert np.allclose(forest.predict(m.x), tree.predict(m.x))

    def test_predictions_within_target_range(self):
        m = self._data()
        forest = fit_forest(m, n_trees=10, max_depth=6, seed=1)
        grid = np.random.default_rng(2).normal(size=(50, m.n_features)) * 3
        preds = forest.predict(grid)
        assert preds.min() >= m.y.min() - 1e-9
        assert preds.max() <= m.y.max() + 1e-9

    def test_same_seed_bit_identical(self):
        m = self._data()
        a = fit_forest(m, n_trees=5, max_depth=5, seed=42)
        b = fit_forest(m, n_trees=5, max_depth=5, seed=42)
        assert model_to_doc(a) == model_to_doc(b)

    def test_different_seed_differs(self):
        m = self._data()
        a = fit_forest(m, n_trees=5, max_depth=5, seed=1)
        b = fit_forest(m, n_trees=5, max_depth=5, seed=2)
        assert model_to_doc(a) != model_to_doc(b)

    def test_forest_prediction_is_mean_of_trees(self):
        m = self._data()
        forest = fit_forest(m, n_trees=7, max_depth=4, seed=3)
        grid = m.x[:10]
        stacked = np.stack([t.predict(grid) for t in forest.trees])
        assert np.allclose(forest.predict(grid), stacked.mean(axis=0), atol=1e-12)

    def test_max_features_validation(self):
        m = self._data(p=3)
        with pytest.raises(ValueError):
            fit_forest(m, n_trees=2, max_features=10)
        with pytest.raises(ValueError):
            fit_forest(m, n_trees=0)


class TestFitGbm:
    def _data(self, n=50, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        y = 2 * x[:, 0] + x[:, 1] ** 2 + rng.normal(0, 0.2, size=n)
        return _fm(x, y)

    def test_zero_rounds_predict_mean(self):
        m = self._data()
        model = fit_gbm(m, n_rounds=0)
        assert np.allclose(model.predict(m.x), m.y.mean())

    def test_training_rmse_non_increasing(self):
        m = self._data()
        losses = []
        for rounds in range(0, 12, 2):
            model = fit_gbm(m, n_rounds=rounds, learning_rate=0.3, max_depth=2)
            err = m.y - model.predict(m.x)
            losses.append(float(err @ err))
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_one_round_full_rate_deep_tree_fits_residuals(self):
        m = _fm([0.0, 1.0, 10.0, 11.0], [1.0, 2.0, 8.0, 9.0])
        model = fit_gbm(m, n_rounds=1, learning_rate=1.0, max_depth=8)
        resid = m.y - model.predict(m.x)
        assert np.max(np.abs(resid)) < 1e-9

    def test_base_only_prediction(self):
        model = BoostedModel(10.0, [], 0.5)
        assert predict(model, np.zeros((3, 0)))[0] == 10.0

    def test_learning_rate_validation(self):
        m = self._data()
        with pytest.raises(ValueError):
            fit_gbm(m, learning_rate=0.0)
        with pytest.raises(ValueError):
            fit_gbm(m, learning_rate=1.5)
        with pytest.raises(ValueError):
            fit_gbm(m, n_rounds=-1)


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
        return fit_gbm(m, n_rounds=3, max_depth=2), m

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
        self._round_trip(fit_tree(m, max_depth=5), x, tmp_path)

    def test_forest_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        m = _fm(x, rng.normal(size=30))
        self._round_trip(fit_forest(m, n_trees=4, max_depth=4, seed=9), x, tmp_path)

    def test_gbm_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 2))
        m = _fm(x, rng.normal(size=30))
        self._round_trip(fit_gbm(m, n_rounds=5, learning_rate=0.5, max_depth=3), x, tmp_path)

    def test_family_tag_self_describing(self, tmp_path):
        m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 5.0])
        path = tmp_path / "model.json"
        save_model(fit_tree(m, max_depth=2), path)
        doc = json.loads(path.read_text())
        assert doc["family"] == "tree"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            model_from_doc({"family": "perceptron"})

    def test_tree_document_is_flat_arrays(self):
        m = _fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 5.0])
        doc = model_to_doc(fit_tree(m, max_depth=2))
        assert doc == {
            "family": "tree",
            "feature": [0, -1, -1],
            "threshold": [1.5, 0.0, 0.0],
            "left": [1, 1, 2],
            "right": [2, 1, 2],
            "value": [3.0, 1.0, 5.0],
            "n_samples": [4, 2, 2],
            "gain": [16.0, 0.0, 0.0],
        }

    def test_nested_tree_document_rejected_by_name(self):
        nested = {"kind": "leaf", "value": 2.0, "n": 3}
        with pytest.raises(ValueError, match="flat fields"):
            model_from_doc({"family": "gbm", "base": 1.0, "learning_rate": 0.1, "trees": [nested]})
        with pytest.raises(ValueError, match="flat fields"):
            model_from_doc({"family": "tree", "root": nested})

    def test_malformed_tree_arrays_rejected(self):
        doc = model_to_doc(fit_tree(_fm([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 5.0, 5.0]), max_depth=2))
        doc["left"][0] = 0  # a split that points back at itself would never end
        with pytest.raises(ValueError, match="preorder"):
            model_from_doc(doc)
        with pytest.raises(ValueError, match="equal length"):
            Tree([0, -1], [0.5], [1, 1], [1, 1], [0.0, 0.0], [2, 1], [0.0, 0.0])

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
        assert "flat fields" in capsys.readouterr().err
        assert not (tmp_path / "shap.csv").exists()
