"""Gradient boosting with squared loss: start from the target mean, then
repeatedly fit a depth-limited tree to the residuals and add it scaled by the
learning rate."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import EmptyInputError
from ..features import FeatureMatrix
from .hyperparams import HyperParams
from .tree import Tree, _CodedMatrix, fit_tree


@dataclass
class BoostedModel:
    base: float
    learning_rate: float
    trees: list[Tree]
    feature_names: tuple[str, ...] = ()

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acc = np.full(x.shape[0], self.base, dtype=np.float64)
        for t in self.trees:
            acc += self.learning_rate * t.predict(x)
        return acc


def fit_gbm(m: FeatureMatrix, hp: HyperParams = HyperParams()) -> BoostedModel:
    """Squared-loss boosting; the negative gradient is just the residual."""
    if m.n_rows == 0:
        raise EmptyInputError("cannot fit on an empty matrix")
    y = np.asarray(m.y, dtype=np.float64)
    base = float(y.mean())
    pred = np.full(m.n_rows, base)
    # every round grows a tree over the same rows, so x is coded once per fit
    coded = _CodedMatrix.of(m)
    trees: list[Tree] = []
    for _ in range(hp.n_rounds):
        residual = y - pred
        tree = fit_tree(replace(coded, y=residual), hp)
        trees.append(tree)
        pred += hp.learning_rate * tree.predict(m.x)
    return BoostedModel(base, hp.learning_rate, trees, feature_names=m.feature_names)
