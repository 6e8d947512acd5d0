"""Self-describing JSON serialization for fitted models.

Python's json round-trips float reprs exactly, so deserialized models are
prediction-identical bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .boosting import BoostedModel
from .forest import ForestModel
from .linear import LinearModel
from .tree import Tree


def model_to_doc(model) -> dict:
    if isinstance(model, LinearModel):
        return {
            "family": "linear",
            "intercept": model.intercept,
            "coefficients": [float(c) for c in model.coefficients],
            "penalty": model.penalty,
            "alpha": model.alpha,
            "l1_ratio": model.l1_ratio,
            "converged": model.converged,
            "n_iter": model.n_iter,
            "feature_names": list(model.feature_names),
        }
    if isinstance(model, Tree):
        return {"family": "tree", **model.to_doc()}
    if isinstance(model, ForestModel):
        return {
            "family": "forest",
            "trees": [t.to_doc() for t in model.trees],
            "max_features": model.max_features,
            "seed": model.seed,
            "feature_names": list(model.feature_names),
        }
    if isinstance(model, BoostedModel):
        return {
            "family": "gbm",
            "base": model.base,
            "learning_rate": model.learning_rate,
            "trees": [t.to_doc() for t in model.trees],
            "feature_names": list(model.feature_names),
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_doc(doc: dict):
    family = doc.get("family")
    if family == "linear":
        return LinearModel(
            doc["intercept"],
            np.array(doc["coefficients"], dtype=np.float64),
            penalty=doc.get("penalty", "none"),
            alpha=doc.get("alpha", 0.0),
            l1_ratio=doc.get("l1_ratio", 0.0),
            converged=doc.get("converged", True),
            n_iter=doc.get("n_iter", 0),
            feature_names=tuple(doc.get("feature_names", ())),
        )
    if family == "tree":
        return Tree.from_doc(doc)
    if family == "forest":
        return ForestModel(
            [Tree.from_doc(t) for t in doc["trees"]],
            doc["max_features"],
            doc["seed"],
            feature_names=tuple(doc.get("feature_names", ())),
        )
    if family == "gbm":
        return BoostedModel(
            doc["base"],
            [Tree.from_doc(t) for t in doc["trees"]],
            doc["learning_rate"],
            feature_names=tuple(doc.get("feature_names", ())),
        )
    raise ValueError(f"unknown model family {family!r}")


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_doc(model), fh)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_doc(json.load(fh))
