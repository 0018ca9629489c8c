"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Pins the BLAS/OpenMP thread count before
numpy loads, then runs one workload; the last stdout line is the JSON
result, the line before it the run's details (inputs, environment, tail
percentile, error rate).
"""

import os
import sys

BLAS_THREADS = "1"  # one thread is steadier than the two cores of a small box

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import harness

    sys.exit(harness.main(sys.argv[1:]))
