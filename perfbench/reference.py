"""Reference figures that are not workloads, each timed in fresh processes.

    python3 perfbench/reference.py

* `compute_KNS` and `normalize` on the pairing cocycle of C4xC4 (|H| = 16,
  word bound 4), cold: each in its own process;
* every CLI example of the top-level README, run as `python3 -m gforge`;
* `import gforge` with bytecode writing off.

Prints one line per figure (median, min and max over REPEATS runs, seconds)
and writes them to perfbench/out/reference.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPEATS = 3

CLI_EXAMPLES = (
    ("invariants", "tests/data/pauli.json"),
    ("classify", "tests/data/swap.json"),
    ("iso", "tests/data/swap.json", "tests/data/swap_normal.json"),
    ("identity", "tests/data/identity_pauli.json"),
    ("witness", "tests/data/mat3.json"),
    ("h2", "tests/data/h2_z2z2.json"),
    ("kform", "tests/data/pauli.json"),
)

PAIRING_C4XC4 = """
import time
import gforge as g
c4 = g.cyclic(4)
grp = g.direct_product(c4, c4)
sub = g.SubgroupData(grp, range(16))
exps = [[(i // 4) * (j % 4) % 4 for j in range(16)] for i in range(16)]
p = g.Presentation(grp, sub, g.make_cocycle(sub, 4, exps), (0,))
t0 = time.perf_counter()
g.{call}(p)
print(time.perf_counter() - t0)
"""

IMPORT = """
import time
t0 = time.perf_counter()
import gforge
print(time.perf_counter() - t0)
"""


def env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                PYTHONDONTWRITEBYTECODE="1")


def in_process(code: str) -> float:
    """Seconds the snippet reports for itself, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], env=env(), cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=600)
    return float(out.stdout.strip().splitlines()[-1])


def as_subprocess(args) -> float:
    """Wall time of a whole CLI process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "gforge", *args], env=env(), cwd=ROOT,
                   capture_output=True, check=True, timeout=600)
    return time.perf_counter() - t0


def main() -> int:
    figures = {}

    def record(name, fn):
        times = [fn() for _ in range(REPEATS)]
        figures[name] = {"median_s": statistics.median(times), "min_s": min(times),
                         "max_s": max(times), "repeats": len(times)}
        print(f"{name:<48} median {figures[name]['median_s']:8.3f} s  "
              f"min {min(times):8.3f}  max {max(times):8.3f}", flush=True)

    record("import gforge", lambda: in_process(IMPORT))
    for cmd, *inputs in CLI_EXAMPLES:
        argv = [cmd, "--input", inputs[0]]
        if len(inputs) > 1:
            argv += ["--input2", inputs[1]]
        name = f"cli {cmd} {' '.join(os.path.basename(i) for i in inputs)}"
        record(name, lambda argv=argv: as_subprocess(argv + ["--json"]))
    for call in ("compute_KNS", "normalize"):
        record(f"{call} C4xC4 pairing, |H| = 16",
               lambda call=call: in_process(PAIRING_C4XC4.format(call=call)))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"python": sys.version.split()[0], "cpus": os.cpu_count(),
                   "figures": figures}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
