"""Time one set-up of a workload in a fresh interpreter and print it as one
JSON line. harness.py runs several of these and reports their median.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import time

START = time.perf_counter()  # before numpy or dchag is imported

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads  # the dchag modules the benchmark drives

    imported = time.perf_counter()
    _, timings = workloads.setup(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"import_s": imported - START, **timings,
                      "setup_s": time.perf_counter() - START}))
