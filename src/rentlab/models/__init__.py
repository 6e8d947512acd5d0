"""The five regression families plus hyperparameters, prediction dispatch,
and JSON serialization."""

from __future__ import annotations

import numpy as np

from ..features import FeatureMatrix
from .boosting import BoostedModel, fit_gbm, fit_gbms
from .forest import ForestModel, auto_max_features, fit_forest, fit_forests
from .hyperparams import HyperParams
from .linear import LinearModel, elastic_net_objective, fit_elastic_net, fit_ols, soft_threshold
from .serialize import load_model, model_from_doc, model_to_doc, save_model
from .tree import Tree, fit_tree

FAMILIES = ("ols", "lasso", "ridge", "elastic", "forest", "gbm")

FittedModel = LinearModel | Tree | ForestModel | BoostedModel


def fit_family(family: str, m: FeatureMatrix, hp: HyperParams, seed: int = 0,
               rows=None) -> FittedModel:
    """Fit one of the named model families with the given hyperparameters on
    rows of m (all when None). The linear families read the rows in place;
    the tree families fit on ``m.take(rows)``."""
    if family == "ols":
        return fit_ols(m, rows)
    if family == "lasso":
        return fit_elastic_net(m, alpha=hp.alpha, l1_ratio=1.0, rows=rows)
    if family == "ridge":
        return fit_elastic_net(m, alpha=hp.alpha, l1_ratio=0.0, rows=rows)
    if family == "elastic":
        return fit_elastic_net(m, alpha=hp.alpha, l1_ratio=hp.l1_ratio, rows=rows)
    if rows is not None:
        m = m.take(rows)
    if family == "forest":
        return fit_forest(m, hp, seed=seed)
    if family == "gbm":
        return fit_gbm(m, hp)
    raise ValueError(f"unknown model family {family!r}; expected one of {FAMILIES}")


def fit_folds(family: str, m: FeatureMatrix, hp: HyperParams, folds, seeds) -> list[FittedModel]:
    """One model per fold, each as ``fit_family`` fits it with its seed on
    the fold's rows, a fold being the ascending indices of its rows. The
    forests and gbms of all folds grow their trees together."""
    if family == "forest":
        return fit_forests(m, hp, folds, seeds)
    if family == "gbm":
        return fit_gbms(m, hp, folds)
    return [fit_family(family, m, hp, seed, rows) for rows, seed in zip(folds, seeds)]


def predict(model: FittedModel, x) -> np.ndarray:
    """Predict for a FeatureMatrix, a 2-d array, or a single row. A matrix
    must carry the model's columns by name and in order; an array only
    their count."""
    if isinstance(x, FeatureMatrix):
        check_columns(model, x.feature_names)
        data = x.x
    else:
        data = np.atleast_2d(np.asarray(x, dtype=np.float64))
    names = getattr(model, "feature_names", ())
    n = len(model.coefficients) if isinstance(model, LinearModel) else len(names)
    if n and data.shape[1] != n:
        raise ValueError(f"model expects {n} features, got {data.shape[1]}")
    if isinstance(model, Tree) and data.shape[1] <= model.feature.max():
        # a lone tree has no feature_names; it reads up to its largest split feature
        raise ValueError(f"model expects at least {model.feature.max() + 1} features, got {data.shape[1]}")
    return model.predict(data)


def check_columns(model: FittedModel, names) -> None:
    """Raise a ValueError naming the missing and unexpected columns when a
    model fitted on named features meets other columns or another order."""
    expected = tuple(getattr(model, "feature_names", ()))
    names = tuple(names)
    if not expected or names == expected:
        return
    missing = [n for n in expected if n not in names]
    unexpected = [n for n in names if n not in expected]
    if not (missing or unexpected):
        raise ValueError(f"model expects its columns in the order {list(expected)}")
    parts = [f"{what} {cols}" for what, cols in (("missing", missing), ("unexpected", unexpected))
             if cols]
    raise ValueError("model was fitted on other columns: " + ", ".join(parts))


__all__ = [
    "BoostedModel",
    "FAMILIES",
    "FittedModel",
    "ForestModel",
    "HyperParams",
    "LinearModel",
    "Tree",
    "auto_max_features",
    "check_columns",
    "elastic_net_objective",
    "fit_elastic_net",
    "fit_family",
    "fit_folds",
    "fit_forest",
    "fit_gbm",
    "fit_ols",
    "fit_tree",
    "load_model",
    "model_from_doc",
    "model_to_doc",
    "predict",
    "save_model",
    "soft_threshold",
]
