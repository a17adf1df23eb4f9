"""Keeps the test process single-threaded.

numpy's BLAS starts worker threads when numpy loads, and ``sweep`` never forks
a process that runs more than one thread; with one BLAS thread, the tests in
``test_triples.py`` that split a sweep over processes still split it after the
scene tests have loaded numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
