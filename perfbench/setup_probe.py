"""One set-up sample: import pmclab and build a workload's configs in this fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from interpreter start-up to configs ready.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

from run import OUT, import_from_checkout  # noqa: E402

import_from_checkout()
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), OUT)
print(time.perf_counter() - START)
