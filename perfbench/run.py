"""Benchmark of the gforge engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 12 --trace 0

Workloads: orbit, cohomology, algebra, oracle (see README.md). With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it prints
the per-layer metrics of a traced run and writes its spans to
perfbench/out/. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

The engine is imported from the src/ directory of the checkout this file
sits in; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("orbit", "cohomology", "algebra", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main() -> int:
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing, so set and dict orders repeat between runs
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    if not os.path.isfile(os.path.join(SRC, "gforge", "__init__.py")):
        print(f"gforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    os.makedirs(harness.OUT_DIR, exist_ok=True)
    stem = os.path.join(harness.OUT_DIR, f"{args.workload}-s{args.seed}")
    if args.trace:
        values, units, tally, info = harness.run_traced(
            args.workload, args.seed, trace_path=f"{stem}-trace.json")
    else:
        values, units, tally, info = harness.run_untraced(
            args.workload, args.seed, args.seconds)
    for note in tally.notes:
        print(note, file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, unit in units:
        print(f"{args.workload:<11} {name:<48} {values[name]:>14.6g} {unit}")
    print(f"{args.workload:<11} ops attempted {tally.attempted}, failed "
          f"{tally.failed}, wrong {tally.wrong}; {json.dumps(info)}")
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(f"{stem}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, info=info), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
