"""Benchmark of the dchag simulator and planner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; see harness.py for what a run measures.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    # BLAS and OpenMP thread pools are sized when numpy is first imported,
    # so pin them before that; the set-up probes inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The simulator runs one rank thread at a time. Kept on one CPU, each
    # hand-off between rank threads stays on that CPU instead of waking
    # another, which on a virtual machine makes parallel steps slower and
    # much noisier. The probes inherit the affinity; the env record shows it.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not permitted: unpinned
        pass
    if not (SRC / "dchag" / "__init__.py").is_file():
        print(f"error: no dchag package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from harness import main

    sys.exit(main(sys.argv[1:]))
