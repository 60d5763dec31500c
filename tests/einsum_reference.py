"""Reference contraction: `np.einsum` over the object arrays of a Tensor's numerators.

This is the body that `skewtor.linalg.Tensor.einsum` had before its compiled
plans of `int_matmul` products, kept here to compare the plans against.  It
multiplies and adds Python integers one term at a time, so it is exact at
every size of entry.
"""

from math import prod

import numpy as np

from skewtor.linalg import Tensor


def einsum(spec, *operands):
    """The exact contraction of real Tensors, by numpy's object-array einsum."""
    nums = (t.num.astype(object) for t in operands)
    return Tensor(np.asarray(np.einsum(spec, *nums), dtype=object),
                  prod(t.den for t in operands))
