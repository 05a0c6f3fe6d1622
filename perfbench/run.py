"""Run one rotinv benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

The last line of standard output is the result as one JSON object.  The exit
code is 0 only when the correctness gate passed and no unit failed.
"""
import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

if __name__ == "__main__":
    started = time.perf_counter()
    for var in THREAD_VARS:        # one BLAS thread, set before numpy loads
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join("src", "rotinv", "__init__.py")):
        sys.exit("perfbench: run from the root of a rotinv source checkout "
                 "(src/rotinv not found)")
    sys.path.insert(0, os.path.abspath("src"))
    import bench
    sys.exit(bench.main(sys.argv[1:], time.perf_counter() - started))
