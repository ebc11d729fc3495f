"""The rules for which inputs the package accepts, one function per rule.

- `check_width`: a kernel width is a positive finite real whose square is a
  normal float; a smaller one would make the Gaussian 0/0.
- `check_non_negative`: a regularizer-like scalar is a non-negative finite
  real; a NaN or infinite one would make a silent NaN.
- `finite_array`: every entry of an array is finite and, where its number of
  axes is given, it has exactly that many and none of them is empty.
- `same_rows`: a vector has one entry per row of a matrix.
- `increasing_grid`: a search grid is a non-empty, finite, strictly
  increasing 1-D sequence; it is returned as a read-only copy.
- `check_integer`: an integer setting is an integer, not a float such as
  2.0; `check_count`: a count is such an integer of at least a lower bound.
- `check_bool`: a yes/no setting is True or False, not a truthy string.

Each raises ValueError naming the input it rejects.  `frozen_copy` makes
the read-only copy that a frozen record stores, so that the caller's array
stays writeable.  Scalars are checked with `math`, not numpy, since
`KernelParams` checks its width at every (sigma, c) search.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np


def check_width(sigma, name: str = "sigma") -> float:
    """Return a kernel width as a float; reject it unless it is a positive finite
    real whose square is a normal float (a smaller one would make the kernel 0/0)."""
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {sigma!r}")
    if sigma * sigma < sys.float_info.min:
        raise ValueError(f"{name} {sigma!r} is too small: its square underflows")
    return sigma


def check_non_negative(value, name: str) -> float:
    """Return a regularizer-like scalar as a float; reject it unless it is a
    non-negative finite real (a NaN or infinite one would make a silent NaN)."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be a non-negative finite real, got {value!r}")
    return value


def finite_array(values, name: str, ndim: int | None = None) -> np.ndarray:
    """Return `values` as a float array whose entries are all finite; with
    `ndim`, it must have exactly `ndim` axes and no empty one."""
    arr = np.asarray(values, dtype=float)
    if ndim is not None and (arr.ndim != ndim or 0 in arr.shape):
        raise ValueError(f"{name} must be a non-empty {ndim}-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def same_rows(x: np.ndarray, y: np.ndarray, name: str):
    """Reject a vector `y`, called `name`, unless it has one entry per row of
    the matrix `x`."""
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{name} must have {x.shape[0]} entries, got shape {y.shape}")


def increasing_grid(values, name: str) -> np.ndarray:
    """Return a non-empty, finite, strictly increasing 1-D grid as a read-only
    float copy."""
    grid = finite_array(values, name, 1)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return frozen_copy(grid)


def frozen_copy(arr: np.ndarray) -> np.ndarray:
    """Return a read-only copy of `arr` in its own memory layout, leaving `arr`
    itself (which may be the caller's own array) writeable."""
    arr = arr.copy(order="K")
    arr.setflags(write=False)
    return arr


def check_integer(value, name: str) -> int:
    """Return an integer setting as an int; reject it unless it is an integer
    (a float, even 2.0, is not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_count(value, low: int, name: str) -> int:
    """Return a count as an int; reject it unless it is an integer of at least
    `low`."""
    count = check_integer(value, name)
    if count < low:
        raise ValueError(f"{name} must be at least {low}, got {count}")
    return count


def check_bool(value, name: str) -> bool:
    """Return a yes/no setting; reject it unless it is True or False (a
    non-empty string such as "false" is truthy)."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be True or False, got {value!r}")
    return value
