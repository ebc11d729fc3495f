"""One JSON mapping for the package's frozen dataclasses, and its inverse."""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from enum import Enum
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np


def _encode(value):
    # Fields keep their declaration order, so report key order is stable.
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Enum):
        return value.value
    return value


def _decode(hint, value):
    if value is None:
        return None
    for tp in get_args(hint) if isinstance(hint, UnionType) else (hint,):
        if is_dataclass(tp):
            hints = get_type_hints(tp)
            return tp(**{
                f.name: _decode(hints[f.name], value[f.name])
                for f in fields(tp)
                if f.name in value
            })
        if tp is np.ndarray:
            return np.asarray(value, dtype=float)
        if get_origin(tp) is tuple:
            return tuple(value)
        if isinstance(tp, type) and issubclass(tp, Enum):
            return tp(value)
    return value


class JsonRecord:
    """Mixin giving a dataclass `to_dict` and `from_dict`.

    `to_dict` maps ndarrays to float lists, tuples to lists, enums to their
    values and nested dataclasses to dicts.  `from_dict` reverses that from
    the field annotations; a missing key takes the field default and a key
    that names no field is ignored.
    """

    def to_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_dict(cls, d: dict):
        return _decode(cls, d)
