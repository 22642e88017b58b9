"""Test-session settings that must be in place before numpy loads.

One BLAS thread: the first SLSQP solve in a process otherwise starts an
OpenBLAS thread pool, which costs 0.5-1.5 s on a small shared machine.
Values already set in the environment are kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
