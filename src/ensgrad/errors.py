"""Exception types shared across the package, and its one rule for a valid
number: an integer is an `int` or numpy integer, a real a finite
`numbers.Real`, neither ever a bool, and a flag a `bool` or `np.bool_`."""

import numbers
import sys

import numpy as np


class DimensionError(ValueError):
    """Array arguments have incompatible or invalid shapes."""


class InsufficientSampleError(ValueError):
    """An operation needs more ensemble members than were provided."""


class DegenerateEnsembleError(ValueError):
    """An ensemble carries no usable spread (e.g. a difference pair v == w)."""


def is_int(v, lo=-np.inf, hi=np.inf):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= v <= hi


def is_real(v, lo=-sys.float_info.max, hi=sys.float_info.max):  # NaN fails every comparison
    v = v.item() if isinstance(v, np.generic) else v  # a float32 would cast (overflow) the bounds
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and lo <= v <= hi


def is_flag(v):
    return isinstance(v, (bool, np.bool_))


def finite_reals(v):
    """Reals, as one or a (nested) sequence or array, in a new float array; else None."""
    a = v if isinstance(v, np.ndarray) and v.dtype.kind in "iuf" else np.array(v, dtype=object)
    ok = all(map(is_real, a.flat)) if a.dtype == object else np.isfinite(a).all()
    return np.array(a, dtype=float) if ok else None


def require(ok, name, what, value):
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")
