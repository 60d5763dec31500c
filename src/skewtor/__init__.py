"""Exact workbench for metric connections with totally skew-symmetric torsion."""

import os

# Integer matrix products run in float64 BLAS (`linalg.int_matmul`); at the
# sizes here (up to 196 x 196) a second BLAS thread saves no time, and the
# program's CPU time stays on one thread.  OpenBLAS reads this when numpy
# is first imported, so it is set before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .forms import Form, wedge, interior, contract, hodge, inner, sigma_t, volume_form  # noqa: E402

__all__ = [
    "Form", "wedge", "interior", "contract", "hodge", "inner", "sigma_t",
    "volume_form",
]
