"""SVD-structured low-rank adapters: train, merge without training, evaluate.

The Python API is the submodules, such as ``svdlora.storage``.
"""

import os

# Every GEMM here is small (256 token rows at d = 32 in training), so BLAS
# threads add only wake-up cost, and when another process holds a core a
# threaded GEMM waits for its descheduled helper: on a 2-core machine with
# one busy process beside it, a default training took 16 s with two BLAS
# threads and 5 s with one. BLAS reads these variables when numpy loads, and
# every submodule imports numpy, so the package sets them before any
# submodule runs; a value the environment gives wins, and a process that
# loaded numpy first keeps its own thread count. Spawned workers
# (``svdlora bench --jobs N``) inherit them.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"
