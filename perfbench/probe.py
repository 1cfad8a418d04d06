"""Set-up probe, run in a fresh process by ``run.py``.

Prints the seconds taken to import ``couette_gevrey`` and construct the
workload's grid, cutoff cascade and evaluation context.

    python3 perfbench/probe.py <workload>
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import couette_gevrey  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup_objects()
print(time.perf_counter() - start)
