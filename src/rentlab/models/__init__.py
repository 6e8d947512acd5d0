"""The five regression families plus hyperparameters, prediction dispatch,
and JSON serialization."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from ..features import FeatureMatrix
from .boosting import BoostedModel, fit_gbm
from .forest import ForestModel, auto_max_features, fit_forest
from .linear import LinearModel, elastic_net_objective, fit_elastic_net, fit_ols, soft_threshold
from .serialize import load_model, model_from_doc, model_to_doc, save_model
from .tree import Tree, fit_tree

FAMILIES = ("ols", "lasso", "ridge", "elastic", "forest", "gbm")

FittedModel = LinearModel | Tree | ForestModel | BoostedModel


@dataclass(frozen=True)
class HyperParams:
    alpha: float = 0.001
    l1_ratio: float = 0.5
    n_trees: int = 30
    max_depth: int = 8
    min_samples_split: int = 2
    max_features: int = 0  # 0 = ceil(p/3)
    learning_rate: float = 0.1
    n_rounds: int = 50

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError(f"l1_ratio must be in [0,1], got {self.l1_ratio}")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.max_features < 0:
            raise ValueError(f"max_features must be >= 0, got {self.max_features}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if self.n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {self.n_rounds}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(values: dict) -> "HyperParams":
        base = HyperParams().to_dict()
        base.update({k: v for k, v in values.items() if k in base})
        return HyperParams(**base)


def fit_family(family: str, m: FeatureMatrix, hp: HyperParams, seed: int = 0) -> FittedModel:
    """Fit one of the named model families with the given hyperparameters."""
    if family == "ols":
        return fit_ols(m)
    if family == "lasso":
        return fit_elastic_net(m, alpha=hp.alpha, l1_ratio=1.0)
    if family == "ridge":
        return fit_elastic_net(m, alpha=hp.alpha, l1_ratio=0.0)
    if family == "elastic":
        return fit_elastic_net(m, alpha=hp.alpha, l1_ratio=hp.l1_ratio)
    if family == "forest":
        return fit_forest(
            m,
            n_trees=hp.n_trees,
            max_depth=hp.max_depth,
            min_samples_split=hp.min_samples_split,
            max_features=hp.max_features,
            seed=seed,
        )
    if family == "gbm":
        return fit_gbm(
            m,
            n_rounds=hp.n_rounds,
            learning_rate=hp.learning_rate,
            max_depth=hp.max_depth,
            min_samples_split=hp.min_samples_split,
        )
    raise ValueError(f"unknown model family {family!r}; expected one of {FAMILIES}")


def predict(model: FittedModel, x) -> np.ndarray:
    """Predict for a FeatureMatrix, a 2-d array, or a single row."""
    if isinstance(x, FeatureMatrix):
        data = x.x
    else:
        data = np.atleast_2d(np.asarray(x, dtype=np.float64))
    expected = n_model_features(model)
    if expected is not None and data.shape[1] != expected:
        raise ValueError(f"model expects {expected} features, got {data.shape[1]}")
    return model.predict(data)


def n_model_features(model: FittedModel) -> int | None:
    if isinstance(model, LinearModel):
        return len(model.coefficients)
    names = getattr(model, "feature_names", ())
    return len(names) if names else None


__all__ = [
    "BoostedModel",
    "FAMILIES",
    "FittedModel",
    "ForestModel",
    "HyperParams",
    "LinearModel",
    "Tree",
    "auto_max_features",
    "elastic_net_objective",
    "fit_elastic_net",
    "fit_family",
    "fit_forest",
    "fit_gbm",
    "fit_ols",
    "fit_tree",
    "load_model",
    "model_from_doc",
    "model_to_doc",
    "n_model_features",
    "predict",
    "save_model",
    "soft_threshold",
]
