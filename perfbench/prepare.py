"""One timed set-up of a workload, in a fresh interpreter.

    python3 perfbench/prepare.py <workload> <seed> <workdir>

Imports stackalloc (from ``src/``, via PYTHONPATH) and writes the
workload's input files into <workdir>.  Then takes a few host-speed
marks (hostspeed.py).  Prints the set-up's elapsed seconds, import
included, and the host factor.
"""

import statistics
import sys
import time

start = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402  (the import is part of set-up)

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
WORKLOADS[name].prepare(seed, workdir)
elapsed = time.perf_counter() - start

import hostspeed  # noqa: E402

probe = hostspeed.Probe()
for _ in range(5):
    probe.mark()
print(elapsed, statistics.median(p for _, p in probe.marks) / (hostspeed.REF_MS / 1e3))
