"""Test-session settings that must be in place before numpy loads.

One BLAS thread, so that every run uses the same thread count whatever the
machine; no result depends on it, and the BLAS-thread tests run their
solves under one and two threads in subprocesses.  Values already set in
the environment are kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
