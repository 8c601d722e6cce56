"""One BLAS thread for the whole suite, as the benchmark runs. A timing test
such as ``test_association_throughput`` then measures the tracker, not
how long idle BLAS threads take to wake on a busy machine. pytest loads
this file before any test module imports numpy, and the variables only
take effect if they are set before that first import."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
