"""The value rules every record and config section applies.

An integer is a numbers.Integral that is not a bool. A number is a
numbers.Real that is not a bool, within the finite float range (no NaN,
inf or int too big for a float). An array of numbers has an int or float
dtype (no bools, strings, objects or ragged rows), all entries finite.
Each check raises ValueError naming the value it was given.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np

__all__ = ["integer", "number", "number_list", "number_array"]


def _is_number(v) -> bool:
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def integer(name: str, v, least: int):
    """`v`, if it is an integer >= `least`."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
    return v


def number(name: str, v):
    """`v`, if it is a number."""
    if not _is_number(v):
        raise ValueError(f"{name} must be a finite number, got {v!r}")
    return v


def number_list(name: str, v, length: int | None = None) -> tuple:
    """`v` as a tuple, if it is a nonempty list or tuple of numbers, of
    `length` entries when that is given."""
    if (not isinstance(v, (list, tuple)) or not v
            or length not in (None, len(v)) or not all(map(_is_number, v))):
        raise ValueError(f"{name} must be a list of {length or 'one or more'}"
                         f" finite numbers, got {v!r}")
    return tuple(v)


def number_array(name: str, value) -> np.ndarray:
    """`value` as a float array, if it is an array of numbers; a missing
    value (None) is named as such."""
    if value is None:
        raise ValueError(f"missing {name}")
    try:
        arr = np.asarray(value)
    except ValueError:                          # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of numbers")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr
