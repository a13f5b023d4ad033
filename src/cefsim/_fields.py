"""The config records: `EipConfig`, `TaskSpec` and `SolverConfig` derive
from `Record`, and their dataclass fields, typed `int`, `float` or
`Optional[int]`, are the only declaration of their JSON keys.  The type
checks, the parser, `ScenarioConfig.to_dict` and `scenario_at` read them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from numbers import Integral, Real
from typing import Mapping, Optional

# (field, message); the field is None for a problem of the record as a whole
Problem = tuple[Optional[str], str]


@functools.cache
def field_types(cls) -> Mapping[str, tuple[type, bool]]:
    """Field name -> (int or float, whether None is allowed) of the record
    class `cls`, in declaration order; read-only, as it is cached."""
    hints, out = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        kind = next((a for a in args if a is not type(None)), hints[f.name])
        if kind not in (int, float):
            raise TypeError(f"{cls.__name__}.{f.name}: unsupported field type {kind}")
        out[f.name] = (kind, type(None) in args)
    return types.MappingProxyType(out)


def type_errors(cls, raw: Mapping) -> list[Problem]:
    """One problem per field of the record class `cls` whose value in `raw`
    has the wrong type.

    Integer fields take integers; real fields take finite integers or
    floats; a boolean is neither; an optional field also takes None.
    """
    errs = []
    for name, (kind, optional) in field_types(cls).items():
        v = raw[name]
        if v is None and optional:
            continue
        if kind is int and (isinstance(v, bool) or not isinstance(v, Integral)):
            errs.append((name, f"{name} must be an integer, got {v!r}"))
        elif kind is float and not is_real(v):
            errs.append((name, f"{name} must be a finite number, got {v!r}"))
    return errs


def is_real(v) -> bool:
    """A finite integer or float; a boolean is not a number."""
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


class Record:
    """Base of the config dataclasses: construction validates every field.
    A subclass yields the problems of well-typed values from its
    `range_errors(values)`, and names in `json_optional` the fields a
    config may leave out (they then take their defaults)."""

    json_optional = ()

    def __post_init__(self):
        problems = self.validation_errors(vars(self))
        if problems:
            raise ValueError("; ".join(msg for _, msg in problems))

    @classmethod
    def validation_errors(cls, raw: Mapping) -> list[Problem]:
        """Every problem with a mapping of the fields (absent ones take their
        defaults); the values are checked only once their types are right."""
        v = {f.name: raw.get(f.name, f.default) for f in dataclasses.fields(cls)}
        return type_errors(cls, v) or list(cls.range_errors(v))
