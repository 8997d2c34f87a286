"""Tier-1 runs numpy's BLAS on one thread.

The (16, 16) panel products of the quadratures and of the propagator are
small.  OpenBLAS splits the wider ones over every core, and while another
process holds a core such a product runs about 100 times slower than on one
thread.  The libraries read these variables once, when numpy loads them, so
they are set here, before any test module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
