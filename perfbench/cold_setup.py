"""One cold set-up in a process of its own, for `setup_s`.

    python3 perfbench/cold_setup.py <workload> <seed> [tiny]

Imports gforge from src/, builds every input of the workload from the seed
and prints three numbers: time.monotonic() when it is done, the median time
of the probes it ran, and the time those probes took. The caller takes the
same clock (CLOCK_MONOTONIC, shared by every process) just before it starts
this one, so the difference, less the probes, runs from process start to
the end of set-up: interpreter start, `import gforge` with numpy, and every
input built. The probes run before the import and after the build, in this
process, so they see the speed of the CPU it runs on.
"""

import os
import sys
import time

from hostspeed import probe_time

PROBES = 5

if __name__ == "__main__":
    t0 = time.monotonic()
    before = [probe_time() for _ in range(PROBES)]
    probes_total = time.monotonic() - t0
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.build(name, seed, tiny=sys.argv[3:] == ["tiny"])
    t1 = time.monotonic()
    after = [probe_time() for _ in range(PROBES)]
    end = time.monotonic()
    probes_total += end - t1
    print(end, sorted(before + after)[PROBES], probes_total)
