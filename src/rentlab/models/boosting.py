"""Gradient boosting with squared loss: start from the target mean, then
repeatedly fit a depth-limited tree to the residuals and add it scaled by the
learning rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInputError
from ..features import FeatureMatrix
from .hyperparams import HyperParams
from .tree import Tree, _CodedMatrix, check_split_features, grow_trees


@dataclass
class BoostedModel:
    base: float
    learning_rate: float
    trees: list[Tree]
    feature_names: tuple[str, ...] = ()
    __post_init__ = check_split_features

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acc = np.full(x.shape[0], self.base, dtype=np.float64)
        for t in self.trees:
            acc += self.learning_rate * t.predict(x)
        return acc


def fit_gbm(m: FeatureMatrix, hp: HyperParams = HyperParams()) -> BoostedModel:
    """Squared-loss boosting; the negative gradient is just the residual."""
    (model,) = fit_gbms(m, hp, [np.arange(m.n_rows)])
    return model


def fit_gbms(m: FeatureMatrix, hp: HyperParams, folds) -> list[BoostedModel]:
    """One model per fold, each as ``fit_gbm`` fits it on ``m.take(rows)``,
    a fold being the ascending indices of its rows. Every round grows the
    folds' trees together over one coding of ``m`` and updates each fold's
    predictions from the leaves its rows reached."""
    if any(rows.size == 0 for rows in folds):
        raise EmptyInputError("cannot fit on an empty matrix")
    y = np.asarray(m.y, dtype=np.float64)
    base = [float(y[rows].mean()) for rows in folds]
    pred = [np.full(rows.size, b) for rows, b in zip(folds, base)]
    ones = [np.ones(rows.size) for rows in folds]
    coded = _CodedMatrix.of(m.x)
    trees: list[list[Tree]] = [[] for _ in folds]
    for _ in range(hp.n_rounds):
        residuals = [(rows, w, y[rows] - pf, None) for rows, w, pf in zip(folds, ones, pred)]
        for f, (tree, fitted) in enumerate(grow_trees(coded, hp, residuals)):
            trees[f].append(tree)
            pred[f] += hp.learning_rate * fitted
    return [BoostedModel(b, hp.learning_rate, t, feature_names=m.feature_names)
            for b, t in zip(base, trees)]
