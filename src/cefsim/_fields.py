"""Type checks shared by the validating classmethods of the config
dataclasses, so a mistyped raw value is reported by field name instead
of failing inside a comparison or an index.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Mapping, Sequence


def type_errors(raw: Mapping, ints: Sequence[str] = (), reals: Sequence[str] = ()) -> list[str]:
    """One message per field whose value has the wrong type.

    Integer fields take integers; real fields take finite integers or
    floats; a boolean is neither.
    """
    errs = []
    for name in ints:
        v = raw[name]
        if isinstance(v, bool) or not isinstance(v, Integral):
            errs.append(f"{name} must be an integer, got {v!r}")
    for name in reals:
        if not is_real(raw[name]):
            errs.append(f"{name} must be a finite number, got {raw[name]!r}")
    return errs


def is_real(v) -> bool:
    """A finite integer or float; a boolean is not a number."""
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)
