"""Exact workbench for metric connections with totally skew-symmetric torsion."""

import os

# Integer matrix products run in float64 BLAS (`linalg.int_matmul`); at the
# sizes here (up to 196 x 196) a second BLAS thread saves no time, and the
# program's CPU time stays on one thread.  OpenBLAS reads this when numpy is
# first imported, so the pin takes effect only when skewtor is imported before
# numpy (on a 2-vCPU VM a 35 x 2401 by 2401 x 35 product took 63 ms unpinned
# against 0.28 ms pinned).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .forms import Form, wedge, interior, contract, hodge, inner, sigma_t, volume_form  # noqa: E402

__all__ = [
    "Form", "wedge", "interior", "contract", "hodge", "inner", "sigma_t",
    "volume_form",
]
