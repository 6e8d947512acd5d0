"""One decoder from JSON values to typed dataclass fields, for the run config
and model documents alike. A float field takes a finite JSON number (an int
as the same float); an int, str or bool field exactly that JSON type; a date
an ISO string; a tuple or list a JSON list; ``dict[str, X]`` an object of X;
``np.ndarray`` a list of finite numbers, as float64; a dataclass an object of
its fields; ``X | None`` also null. A field's ``"load"`` metadata, called as
``load(annotation, value, path)``, replaces its rule. A failure is a
SchemaError that starts with the value's path (``section.key``, ``key[i]``).
"""

from __future__ import annotations

import datetime as _dt
import functools
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import SchemaError

_MAX = sys.float_info.max
_hints = functools.cache(typing.get_type_hints)
_JSON_NAMES = {int: "int", str: "string", bool: "bool"}


def _is_number(value) -> bool:
    # false for a bool, NaN, an infinity and an int past the largest float
    return type(value) in (int, float) and -_MAX <= value <= _MAX


def _join(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _fail(where: str, what: str, value):
    raise SchemaError(f"{where or 'the document'} {what}: {value!r:.80}")


def at_least(obj, **lows) -> None:
    """The range rule of a dataclass's number fields, for its __post_init__:
    a ValueError names the first field of obj below its low bound, or NaN."""
    for name, low in lows.items():
        if not getattr(obj, name) >= low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(obj, name)}")


def check_keys(doc, allowed, where: str) -> dict:
    """doc, a JSON object with no key outside allowed (any, if allowed is doc)."""
    if type(doc) is not dict:
        _fail(where, "is not a JSON object", doc)
    if set(doc) - set(allowed):
        _fail(where, "has unknown keys", sorted(set(doc) - set(allowed)))
    return doc


def decode(tp, value, where: str, ignore_unknown: bool = False):
    """The JSON value at path where, as annotation tp. A dataclass's object
    may hold keys that are not its fields only with ignore_unknown."""
    if isinstance(tp, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = set(typing.get_args(tp)) - {type(None)}
    if is_dataclass(tp):
        return _decode_fields(tp, value, where, ignore_unknown)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict:
        return {k: decode(args[1], v, _join(where, k), ignore_unknown)
                for k, v in check_keys(value, value, where).items()}
    if origin in (list, tuple):
        fixed = origin is tuple and args[-1] is not Ellipsis
        if type(value) is not list or fixed and len(value) != len(args):
            _fail(where, f"is not a JSON list of {len(args)}" if fixed else "is not a JSON list", value)
        items = [decode(t, v, f"{where}[{i}]", ignore_unknown)
                 for i, (t, v) in enumerate(zip(args if fixed else args[:1] * len(value), value))]
        return tuple(items) if origin is tuple else items
    if tp is np.ndarray:
        if type(value) is not list or not all(map(_is_number, value)):
            _fail(where, "is not a list of finite numbers", value)
        return np.array(value, dtype=np.float64)
    if tp is float:
        if not _is_number(value):
            _fail(where, "is not a finite number", value)
        return float(value)
    if tp is _dt.date:
        try:
            return _dt.date.fromisoformat(value)
        except (TypeError, ValueError):  # not a string, or not a date
            _fail(where, "is not an ISO date", value)
    if type(value) is tp and tp in _JSON_NAMES:
        return value
    _fail(where, f"is not a JSON {_JSON_NAMES[tp]}", value)  # a KeyError: tp has no rule


def _decode_fields(cls, doc, where: str, ignore_unknown: bool):
    """Dataclass cls from a JSON object of its fields; an absent field takes
    its default. A ValueError from cls starts with the name of the field it
    rejects, and is raised as a SchemaError on that field's path."""
    check_keys(doc, doc if ignore_unknown else cls.__dataclass_fields__, where)
    missing = [f.name for f in fields(cls)
               if f.name not in doc and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise SchemaError(f"{where or 'the document'} lacks the fields {missing}")
    hints, values = _hints(cls), {}
    for f in fields(cls):
        if f.name in doc:
            load = f.metadata.get("load") or functools.partial(decode, ignore_unknown=ignore_unknown)
            values[f.name] = load(hints[f.name], doc[f.name], _join(where, f.name))
    try:
        return cls(**values)
    except ValueError as exc:
        raise SchemaError(_join(where, str(exc))) from exc
