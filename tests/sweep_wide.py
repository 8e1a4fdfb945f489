"""The wide small-case sweep of the k-form span closure, outside the test
suite: on every pool group of order at most MAX_ORDER, the inputs of
helpers.sweep_inputs at m in MODULI are normalized (each normal form once),
and in every k-form mode algebra._span_report is compared with
helpers.span_report_full_closure, the depth-first closure it replaced, on
the generators of build_k_form and on every other generator. Outcomes are
(k_dim, f_span_full, ok) or the error type, and must agree.

Run from the repository root:

    PYTHONPATH=src python tests/sweep_wide.py

It prints the outcome counts per mode and exits 1 on any disagreement.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import helpers  # noqa: E402
from gforge.algebra import MODES  # noqa: E402
from gforge.errors import GForgeError  # noqa: E402
from gforge.presentation import normalize, validate_presentation  # noqa: E402

MAX_ORDER = 16
MODULI = (2, 3, 4, 6)


def main() -> int:
    start = time.perf_counter()
    counts = {mode: Counter() for mode in MODES}
    inputs, mismatches, unnormalized = 0, [], Counter()
    for grp in helpers.group_pool(MAX_ORDER):
        seen = set()
        for p in helpers.sweep_inputs(grp, MODULI):
            if not validate_presentation(p).connected:
                continue
            try:
                q = normalize(p)
            except GForgeError as e:
                unnormalized[type(e).__name__] += 1
                continue
            key = (q.sub.elements, q.alpha.modulus, q.alpha.exps, q.entries)
            if key in seen:
                continue
            seen.add(key)
            inputs += 1
            for mode, which, got, (want,) in helpers.span_outcomes(
                    q, (helpers.span_report_full_closure,)):
                label = got.__name__ if isinstance(got, type) else "ok" if got[2] else "not ok"
                counts[mode][f"{which}: {label}"] += 1
                if got != want:
                    mismatches.append((grp.order, q.sub.elements, q.alpha.modulus,
                                       q.entries, mode, which, got, want))
    print(f"{inputs} distinct normal forms (max order {MAX_ORDER}, m in {MODULI}), "
          f"{time.perf_counter() - start:.1f} s; normalize failed: {dict(unnormalized)}")
    for mode, c in counts.items():
        reached = c.total() // 2
        print(f"mode {mode}: span check reached on {reached} of {inputs}")
        for name, n in sorted(c.items()):
            print(f"  {n:6d}  {name}")
    print(f"{len(mismatches)} disagreements with the full closure")
    for m in mismatches[:20]:
        print("  ", m)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
