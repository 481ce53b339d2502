"""Entry point of the qsatwalk benchmark; see harness.py for what it measures.

    python3 bench/run.py --workload evolve-n8 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from src/.
BLAS is pinned to one thread before numpy is first imported.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "qsatwalk" / "__init__.py").is_file():
        print(f"error: no qsatwalk package under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    # one core for the whole run, set-up children included, so that the
    # reference kernels gauge the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main())
