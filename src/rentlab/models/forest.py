"""Bagged regression forest: bootstrap per tree, random feature subset per
split, prediction = arithmetic mean of the trees."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..features import FeatureMatrix
from .hyperparams import HyperParams
from .tree import Tree, _CodedMatrix, check_split_features, grow_trees


@dataclass
class ForestModel:
    trees: list[Tree]
    max_features: int
    seed: int
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.trees:  # predict would divide by zero
            raise ValueError("trees is empty: a forest averages one or more trees")
        check_split_features(self)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acc = np.zeros(x.shape[0], dtype=np.float64)
        for t in self.trees:
            acc += t.predict(x)
        return acc / len(self.trees)


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    # per-tree stream keyed on (seed, index): results do not depend on the
    # order trees are fit in
    return np.random.default_rng(np.random.SeedSequence((seed, tree_index)))


def auto_max_features(p: int) -> int:
    return max(1, math.ceil(p / 3))


def fit_forest(
    m: FeatureMatrix,
    hp: HyperParams = HyperParams(),
    seed: int = 0,
) -> ForestModel:
    """Fit hp.n_trees bagged trees; hp.max_features=0 means ceil(p/3). A
    tree's bootstrap sample is each row's multiplicity among n draws, which
    its split search takes as row weights."""
    (forest,) = fit_forests(m, hp, [np.arange(m.n_rows)], [seed])
    return forest


def fit_forests(m: FeatureMatrix, hp: HyperParams, folds, seeds) -> list[ForestModel]:
    """One forest per fold, each as ``fit_forest`` fits it with its seed on
    ``m.take(rows)``, a fold being the ascending indices of its rows. The
    folds' trees grow together over one coding of ``m``."""
    p = m.n_features
    mf = hp.max_features or auto_max_features(p)
    if mf > p:
        raise ValueError(f"max_features {mf} exceeds feature count {p}")
    y = np.asarray(m.y, dtype=np.float64)

    def bootstraps():
        for rows, seed in zip(folds, seeds):
            n = rows.size
            for t in range(hp.n_trees):
                rng = _tree_rng(seed, t)
                weight = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
                drawn = weight.nonzero()[0]
                yield rows[drawn], weight[drawn], y[rows[drawn]], rng

    trees = [tree for tree, _ in grow_trees(_CodedMatrix.of(m.x), hp, bootstraps(), mf)]
    return [ForestModel(trees[f * hp.n_trees:(f + 1) * hp.n_trees], mf, seed,
                        feature_names=m.feature_names)
            for f, seed in enumerate(seeds)]
