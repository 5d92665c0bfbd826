"""Benchmark entry point; see harness.py for what a run does.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. BLAS and OpenMP are pinned to one
thread before numpy loads, so every run is single-threaded. Bytecode
caching is off, so set-up always compiles the library's sources, whether
or not the environment sets PYTHONDONTWRITEBYTECODE.
"""

import os
import sys

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    from harness import main

    sys.exit(main())
