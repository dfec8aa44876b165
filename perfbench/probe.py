"""Time one benchmark set-up in a fresh interpreter.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED SIZE WORKDIR``.  Times the
import of gapgauge, the input synthesis or write and the config build, and
prints the seconds taken as its last line.  ``run.py`` starts several of
these and reports their median as ``setup_s``.
"""

import sys
import time

from checkout import use_checkout_source

if __name__ == "__main__":
    workload, seed, size, workdir = sys.argv[1:5]
    use_checkout_source()
    start = time.perf_counter()
    import workloads
    from pathlib import Path
    workloads.prepare(workload, int(seed), size, Path(workdir))
    print(repr(time.perf_counter() - start))
