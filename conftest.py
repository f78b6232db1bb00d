"""Test-session setup shared by `tests/` and `bench/`.

BLAS runs on one thread: the suite's linear algebra is small, and beside
other busy processes a multi-threaded BLAS spends more time waiting than
computing.  numpy is not yet imported when pytest loads this file, so the
settings reach its BLAS; a value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

pytest_plugins = ["pytester"]
