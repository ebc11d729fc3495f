"""Run the whole test suite with one BLAS thread, as `perfbench/run.py` does.

BLAS reads these variables once, when numpy first loads it, so they are set
here: pytest imports this file before it collects any test module.  With the
default thread count a LAPACK call on a small design can take 20 times longer
while another process keeps a CPU busy, and the acceptance criteria's time
bounds would depend on the machine's load.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
