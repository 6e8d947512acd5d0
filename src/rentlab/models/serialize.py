"""Self-describing JSON serialization for fitted models: a model document is
its family tag, then the model class's dataclass fields in order, arrays as
lists and trees as documents of their own fields. Decoding follows the field
rules of ``rentlab.jsonfields``, as the run config does, except that keys
which are not fields (the family tag, a tree's old ``left``/``right``/
``n_samples``/``gain`` lists) are ignored. Python's json round-trips float
reprs exactly, so deserialized models are prediction-identical bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

import numpy as np

from ..jsonfields import check_keys, decode
from .boosting import BoostedModel
from .forest import ForestModel
from .linear import LinearModel
from .tree import Tree

_FAMILIES = {"linear": LinearModel, "tree": Tree, "forest": ForestModel, "gbm": BoostedModel}


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def model_to_doc(model) -> dict:
    for family, cls in _FAMILIES.items():
        if isinstance(model, cls):
            return {"family": family, **_encode(model)}
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_doc(doc: dict):
    where = "model document"
    family = decode(str, check_keys(doc, doc, where).get("family"), f"{where}.family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    return decode(_FAMILIES[family], doc, f"{family} model document", ignore_unknown=True)


def save_model(model, path) -> None:
    # json.dumps encodes in C where json.dump, writing as it goes, does not
    text = json.dumps(model_to_doc(model))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_doc(json.load(fh))
