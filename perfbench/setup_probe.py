"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <config dir>

Times importing cohk and the modules it loads lazily on first use
(scipy.linalg), plus generating the workload's configs, and prints the
seconds as one JSON number.  run.py starts several of these and reports
the median as setup_s.
"""

import os
import sys
from time import perf_counter

t0 = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import cohk.cli  # noqa: E402
import scipy.linalg  # noqa: E402,F401
import workloads  # noqa: E402

workloads.write_configs(ROOT, sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(perf_counter() - t0)
