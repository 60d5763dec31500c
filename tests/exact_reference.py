"""The representation of an exact array, checked entry by entry.

An exact array (`Form`, `Tensor`, `GaussTensor`) carries a bound on its
numerators.  Its contract: every numerator lies within the bound, and the
numerators are an int64 array while the bound is below 2^62 and an object
array of Python ints past it.
"""

from fractions import Fraction

import numpy as np

WORD = 2 ** 62


def holds(x) -> bool:
    """Whether the exact array x keeps its contract."""
    flat = x.num.ravel().tolist()
    if max(map(abs, flat), default=0) > x.bound:
        return False
    if x.bound < WORD:
        return x.num.dtype == np.int64
    return x.num.dtype == object and all(type(v) is int for v in x.num.flat)


def fractions(x):
    """The entries of a real exact array as nested lists of Fractions (a Fraction for a scalar)."""
    values = np.array([Fraction(v, x.den) for v in x.num.ravel().tolist()], dtype=object)
    return values.reshape(x.num.shape).tolist()
