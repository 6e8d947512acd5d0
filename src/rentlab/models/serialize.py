"""Self-describing JSON serialization for fitted models: a model document is
its family tag, then the model class's dataclass fields in order, arrays as
lists and trees as documents of their own fields. Decoding takes each field's
type from the class annotations and an absent field's default from the class;
other keys are ignored. Python's json round-trips float reprs exactly, so
deserialized models are prediction-identical bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from ..errors import SchemaError
from .boosting import BoostedModel
from .forest import ForestModel
from .linear import LinearModel
from .tree import Tree

_FAMILIES = {"linear": LinearModel, "tree": Tree, "forest": ForestModel, "gbm": BoostedModel}
_field_types = functools.cache(typing.get_type_hints)


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


def _decode(kind, value, where: str):
    """The value of a field annotated ``kind`` from its JSON form."""
    if kind is np.ndarray:
        try:
            array = np.asarray(value)
            numeric = array.dtype.kind in "iuf"
        except ValueError:  # ragged nesting
            numeric = False
        # a null or a numeric string would otherwise load as nan or as its number
        if not numeric:
            raise SchemaError(f"{where} is not an array of numbers: {value!r:.80}")
        if not np.isfinite(array).all():  # json reads NaN and Infinity
            raise SchemaError(f"{where} holds a NaN or an infinity: {value!r:.80}")
        return array.astype(np.float64)
    # json reads NaN and Infinity as floats; a bool is neither an int nor a float here
    if kind in (float, int) and type(value) is not int and not (type(value) is float and math.isfinite(value)):
        raise SchemaError(f"{where} is not a finite number: {value!r:.80}")
    if kind in (str, bool) and type(value) is not kind:
        raise SchemaError(f"{where} is not a JSON {'string' if kind is str else 'bool'}: {value!r:.80}")
    if is_dataclass(kind):
        return _from_fields(kind, value, where)
    origin = typing.get_origin(kind)
    if origin in (list, tuple):  # list[T] or tuple[T, ...]
        if type(value) is not list:
            raise SchemaError(f"{where} is not a JSON list: {value!r:.80}")
        items = [_decode(typing.get_args(kind)[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
        return tuple(items) if origin is tuple else items
    return value


def _from_fields(cls, doc, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} is not a JSON object")
    missing = [f.name for f in fields(cls)
               if f.name not in doc and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        what = f"the fields {missing}"
        if cls is Tree:  # trees were once stored as nested node objects
            what = f"the flat fields {missing}; nested tree documents are not read, refit the model"
        raise SchemaError(f"{where} lacks {what}")
    types = _field_types(cls)
    return cls(**{f.name: _decode(types[f.name], doc[f.name], f"{where} {f.name}")
                  for f in fields(cls) if f.name in doc})


def model_from_doc(doc: dict):
    if not isinstance(doc, dict):
        raise SchemaError(f"a model document is a JSON object, not {type(doc).__name__}")
    family = doc.get("family")
    if not isinstance(family, str):
        raise SchemaError(f"a model document's family is a string, not {family!r}")
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    return _from_fields(_FAMILIES[family], doc, f"{family} model document")


def save_model(model, path) -> None:
    # json.dumps encodes in C where json.dump, writing as it goes, does not
    text = json.dumps(model_to_doc(model))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_doc(json.load(fh))
