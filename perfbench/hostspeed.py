"""The probe: a fixed pure-Python loop that measures the host's current speed.

The benchmark divides each time it takes by the time of a probe run next to
it (see harness.py).
"""

import statistics
from time import perf_counter


def probe() -> int:
    """The fixed loop, about 1.5 ms on a 2-vCPU Xeon host at 2.0 GHz."""
    seen: dict = {}
    acc = 0
    for i in range(3000):
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + i
        acc += len(seen) * (i & 7)
    return acc


def probe_time(repeats: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        probe()
        times.append(perf_counter() - t0)
    return statistics.median(times)
