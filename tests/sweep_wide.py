"""The wide small-case sweeps, outside the test suite, on every pool group
of order at most MAX_ORDER.

The k-form pass normalizes the inputs of helpers.sweep_inputs at m in
MODULI (each normal form once) and in every k-form mode compares
algebra._span_report with helpers.span_report_full_closure, the
depth-first closure it replaced, on the generators of build_k_form and on
every other generator. Outcomes are (k_dim, f_span_full, ok) or the error
type, and must agree.

The presentation pass runs the checks of the tier-1 presentation sweep
(helpers.presentation_checks) on helpers.sweep_inputs at m in MODULI, on
every pool group and on the class-moving ambients of helpers.chain_ambients
with their subgroup H. Among them, the invariant chain of each input and of
a fresh copy of its normal form must equal helpers.compute_kns_by_elements,
the element-wise computation that compute_KNS replaced, in every field; the
pass prints how many chains it compared. It counts the inputs that reach
classify's conjugation test with each verdict; the pool alone never gives a
False, the ambients whose outer conjugations move classes do, and the pass
fails when none does.

The iso pass compares presentation.iso_witness, which makes one class test
per left coset of H1, with helpers.iso_witness_every_element, which makes
one per element, on the inputs of the presentation pass: each against a
seeded translate of itself and against every other class on its subgroup
(helpers.iso_pairs). The witnesses, or None, must agree.

The h2 pass runs twisted.h2_classes on every subgroup of each pool group,
in that group, at m in H2_MODULI, and compares the classes (or the cap
message) with helpers.h2_classes_by_snf, whose Z^2 is the kernel of the
per-edge system (helpers.cocycle_system_by_edges, not the relator system),
whose L is the kernel over Z/M of the coboundary rows and whose quotient is
a Smith normal form. It counts the cases that took the one-class exit
(Z^2 = L, so no flat basis of L was built) and those that enumerated.

The semidirect pass runs build_k_form in every mode on the seeded
(C_p x C_p) x| C_k presentations of helpers.semidirect_pair_presentations
(SEMIDIRECT_SEEDS, SEMIDIRECT_COUNT per action), the family on which the
modes differ, counts the outcomes per mode and names every input on which
mode "corrected" is not ok. Every input must return a report: a cocycle
whose roots leave Q(zeta_big) is closed on a mu_n-valued representative,
so a PreconditionError counts as a fault.

The product pass multiplies seeded dense elements (helpers.dense_element)
of the algebra of each normal form of the k-form pass, both ways round,
with coefficients at modulus 1, at the cocycle modulus m, and at 1, m and
an n that does not divide m, and compares algebra.multiply with
helpers.multiply_by_rows, the per-key vector kernel it replaced: keys, key
order and (modulus, nums, den) per key must agree. It counts the products
per kernel: one working modulus L = 1, L = m or L = n, or mixed moduli
(operands at modulus 1 take L = m when the cocycle's roots are not +-1, and
roots at m = 2 are rational).

The identity pass runs identity_report on the normal forms of the k-form
pass whose tuples repeat an entry, where the oracle scans only the lead
prefixes that are lex-least under the position symmetry, and compares every
report field with helpers.identity_report_all_leads, the scan over every
lead prefix. The polynomials are s_2, s_3, s_4 and the Hall polynomial with
every variable in one degree g, and s_3 and s_4 with the first variable in
degree g and the others in degree e, for each degree g of the algebra.

The witness pass runs identities.build_witness on the normal forms of the
k-form pass and compares identities.nonvanishing_set, which makes one entry
test per frame and per bridge, with helpers.nonvanishing_set_by_product,
the scan over every tuple of bridge values it replaced. The sets, or the
error type, must agree; inputs that build_witness refuses are counted by
error type.

The scale pass runs the rungs at the group_order cap: G = D256 (order
512), H the rotations of order 64, 128 and 256 or the dihedral subgroups
D32, D64 and D128, the trivial cocycle shifted by a seeded coboundary at
m in SCALE_MODULI, and the tuple (0, st) of two entries. On each rung it
times normalize and compute_KNS on fresh presentations, classify (which
refuses the disconnected gradings of the rotation rungs of index 4 and 8)
and iso_witness against a seeded translate, and prints the ms per rung. It
compares normalize_with_details with helpers.normalize_with_details_by_tables,
which builds every candidate's table, and counts a disagreement there or
when iso_witness finds no witness for the translate. It then runs the
k-form rungs: G = H = C_p x C_p for p in KFORM_PRIMES with the bicharacter
class at n = p (helpers.pairing_cocycle) and the tuple (0,), so that A is
M_p(F). On each it times build_k_form, checks ok=True and k_dim = p^2, and
compares the report with helpers.span_report_full_closure, the closure that
never stops early, and counts a disagreement on any difference. It never
fails on a time.

Run from the repository root:

    PYTHONPATH=src python tests/sweep_wide.py

It prints the outcome counts per mode, the number of presentation inputs,
chains compared and conjugation verdicts, iso pairs, h2 cases, products per kernel, identity inputs
and lead prefixes, witness inputs, the times per scale and k-form rung, and of disagreements, and
exits 1 on any
disagreement, on a k-form PreconditionError, or when no input reaches a False conjugation test.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from math import prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import helpers  # noqa: E402
from gforge import twisted  # noqa: E402
from gforge.algebra import MODES, GradedAlgebra, build_k_form, multiply  # noqa: E402
from gforge.errors import GForgeError, PreconditionError  # noqa: E402
from gforge.groups import SubgroupData, cyclic, dihedral, direct_product  # noqa: E402
from gforge.identities import (GradedPolynomial, build_witness, identity_report,  # noqa: E402
                               nonvanishing_set)
from gforge.presentation import (Presentation, apply_move, classify, compute_KNS,  # noqa: E402
                                 iso_witness, normalize, normalize_with_details,
                                 validate_presentation)
from gforge.twisted import h2_classes, shift_by_coboundary, trivial_cocycle  # noqa: E402

MAX_ORDER = 16
MODULI = (2, 3, 4, 6)
H2_MODULI = (2, 3, 4, 5, 6, 8, 12)
SEMIDIRECT_SEEDS = (7, 11, 12, 13)
SEMIDIRECT_COUNT = 4
PRODUCT_SHARE = 0.6
SCALE_MODULI = (1, 4)
KFORM_PRIMES = (5, 7, 11)


def presentation_inputs(seed: str):
    """(label, rng, inputs) per case of the presentation pass: helpers.sweep_inputs
    at m in MODULI on every pool group, and on the class-moving ambients of
    helpers.chain_ambients with their subgroup H; rng is seeded by seed and
    the label."""
    cases = [(grp.name, grp, None) for grp in helpers.group_pool(MAX_ORDER)]
    cases += [(f"{grp.name} > {name}", grp, [elems])
              for name, (grp, elems) in sorted(helpers.chain_ambients().items())]
    for label, grp, subs in cases:
        yield label, random.Random(f"{seed}:{label}"), helpers.sweep_inputs(grp, MODULI, subs)


def presentation_pass() -> int:
    """Prints the presentation input count, the chains compared with the
    element-wise oracle, the conjugation test verdicts and the
    disagreements; returns the latter's number, plus 1 when no input reaches
    a False conjugation test."""
    start = time.perf_counter()
    inputs, chains, reached, false, mismatches = 0, 0, 0, Counter(), []
    for label, rng, ps in presentation_inputs("presentation-sweep-wide"):
        for p in ps:
            inputs += 1
            try:
                failed, verdict, compared = helpers.presentation_checks(p, rng)
            except GForgeError as e:  # such as a cross-check's InternalError
                failed, verdict, compared = [f"{type(e).__name__}: {e}"], None, 0
            chains += compared
            reached += verdict is not None
            false[label] += verdict is False
            if failed:
                mismatches.append((label, p.sub.elements, p.alpha.modulus, p.entries, failed))
    false = +false  # drops the labels with no False
    print(f"presentations: {inputs} inputs (pool and class-moving ambients, m in {MODULI}), "
          f"{time.perf_counter() - start:.1f} s; {chains} chains compared with "
          f"helpers.compute_kns_by_elements; conjugation test reached on {reached}, "
          f"False on {false.total()} ({dict(false)}); {len(mismatches)} disagreements")
    for m in mismatches[:20]:
        print("  ", m)
    return len(mismatches) + (not false)


def iso_pass() -> int:
    """Prints the iso_witness pair count, the isomorphic pairs and the
    disagreements; returns the latter's number."""
    start = time.perf_counter()
    pairs, isomorphic, mismatches = 0, 0, []
    for label, rng, ps in presentation_inputs("iso-sweep-wide"):
        for p in ps:
            for p1, p2 in helpers.iso_pairs(p, rng):
                pairs += 1
                want = helpers.iso_witness_every_element(p1, p2)
                isomorphic += want is not None
                if iso_witness(p1, p2) != want:
                    mismatches.append((label, p1.sub.elements, p1.alpha.modulus,
                                       p1.entries, p2.sub.elements, p2.entries))
    print(f"iso_witness: {pairs} pairs (each presentation input against a translate "
          f"and against every other class on its subgroup), "
          f"{time.perf_counter() - start:.1f} s; {isomorphic} isomorphic; "
          f"{len(mismatches)} disagreements with iso_witness_every_element")
    for m in mismatches[:20]:
        print("  ", m)
    return len(mismatches)


def h2_pass() -> int:
    """Prints the h2 case count, how many cases took the one-class exit
    (Z^2 = L, no flat basis of L built) and how many enumerated, and the
    disagreements; returns the latter's number. A one-class exit that
    returns other than one class counts as a disagreement."""
    start = time.perf_counter()
    cases, mismatches, paths = 0, [], Counter()
    flat_basis, flat_calls = twisted._root_coboundaries, []
    twisted._root_coboundaries = lambda *args: flat_calls.append(1) or flat_basis(*args)
    try:
        for grp in helpers.group_pool(MAX_ORDER):
            for elems in helpers.all_subgroups(grp):
                sub = SubgroupData(grp, elems)
                for m in H2_MODULI:
                    cases += 1
                    built = len(flat_calls)
                    got = helpers.h2_outcome(h2_classes, sub, m)
                    path = ("enumerated" if len(flat_calls) > built else "capped"
                            if got[0] == "cap" else "one-class exit")
                    paths[path] += 1
                    if ((path == "one-class exit" and len(got) != 1)
                            or got != helpers.h2_outcome(helpers.h2_classes_by_snf, sub, m)):
                        mismatches.append((grp.name, elems, m))
    finally:
        twisted._root_coboundaries = flat_basis
    print(f"h2_classes: {cases} cases (every subgroup of the pool, m in {H2_MODULI}), "
          f"{time.perf_counter() - start:.1f} s; {paths['one-class exit']} took the "
          f"one-class exit, {paths['enumerated']} enumerated, {paths['capped']} capped; "
          f"{len(mismatches)} disagreements with h2_classes_by_snf")
    for m in mismatches[:20]:
        print("  ", m)
    return len(mismatches)


def normal_forms(unnormalized: Counter):
    """Each distinct normal form of helpers.sweep_inputs at m in MODULI, on
    every pool group; failures to normalize are counted by error type."""
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
            if key not in seen:
                seen.add(key)
                yield grp, q


def kform_pass() -> int:
    """Prints the k-form outcome counts and disagreements; returns the
    latter's number."""
    start = time.perf_counter()
    counts = {mode: Counter() for mode in MODES}
    inputs, mismatches, unnormalized = 0, [], Counter()
    for grp, q in normal_forms(unnormalized):
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
    return len(mismatches)


def product_pass() -> int:
    """Prints the product counts per kernel and the disagreements; returns
    the latter's number."""
    start = time.perf_counter()
    kernels, mismatches, forms = Counter(), [], 0
    for grp, q in normal_forms(Counter()):
        forms += 1
        alg = GradedAlgebra(q)
        m = alg.alpha.modulus
        n = next(k for k in (3, 4, 5, 8) if m % k)
        rng = random.Random(f"product-sweep-wide:{grp.name}:{q.sub.elements}:{m}:"
                            f"{q.alpha.exps}:{q.entries}")
        for moduli in ((1,), (m,), (1, m, n)):
            x, y = (helpers.dense_element(rng, alg, moduli, PRODUCT_SHARE) for _ in range(2))
            for a, b in ((x, y), (y, x)):
                used = ({alg._root_modulus} | {c.modulus for c in a.terms.values()}
                        | {c.modulus for c in b.terms.values()}) - {1}
                kernels["mixed moduli" if len(used) > 1 else "L = 1" if not used
                        else "L = m" if m in used else "L = n"] += 1
                if (helpers.scalar_slots(multiply(a, b))
                        != helpers.scalar_slots(helpers.multiply_by_rows(a, b))):
                    mismatches.append((grp.order, q.sub.elements, m, q.entries, moduli))
    print(f"products: {kernels.total()} on {forms} normal forms ({dict(sorted(kernels.items()))}), "
          f"{time.perf_counter() - start:.1f} s; {len(mismatches)} disagreements "
          "with multiply_by_rows")
    for m in mismatches[:20]:
        print("  ", m)
    return len(mismatches)


def identity_pass() -> int:
    """Prints the identity inputs, lead prefix counts and disagreements;
    returns the latter's number."""
    start = time.perf_counter()
    polys = [helpers.standard_polynomial(r) for r in (2, 3, 4)] + [helpers.hall_polynomial()]
    scanned = []
    scan = GradedAlgebra.lead_prefixes

    def counted(algebra, degrees):
        scanned.append([0, prod(algebra.dims[g] for g in degrees)])
        for lead in scan(algebra, degrees):
            scanned[-1][0] += 1
            yield lead

    algebras, inputs, least, full, verdicts, mismatches = 0, 0, 0, 0, Counter(), []
    GradedAlgebra.lead_prefixes = counted
    try:
        for grp, q in normal_forms(Counter()):
            if len(set(q.entries)) == len(q.entries):
                continue
            algebra = GradedAlgebra(q)
            algebras += 1
            for g in sorted(algebra.dims):
                cases = [helpers.in_degrees(p, [g] * len(p.variables)) for p in polys]
                cases += [helpers.in_degrees(p, [g] + [0] * (len(p.variables) - 1))
                          for p in polys[1:3]]
                for p in cases:
                    inputs += 1
                    del scanned[:]
                    got = identity_report(p, algebra)
                    verdicts[got.identity] += 1
                    if got.identity:  # every lex-least prefix was scanned
                        least += sum(k for k, _ in scanned)
                        full += sum(n for _, n in scanned)
                    if (helpers.report_fields(got) != helpers.report_fields(
                            helpers.identity_report_all_leads(p, algebra))):
                        mismatches.append((grp.order, q.sub.elements, q.alpha.modulus,
                                           q.entries, p.variables))
    finally:
        GradedAlgebra.lead_prefixes = scan
    print(f"identity_report: {inputs} inputs on {algebras} normal forms with a repeated "
          f"entry, {time.perf_counter() - start:.1f} s; {verdicts[True]} identities, "
          f"{verdicts[False]} not; on the identities {least} lex-least lead prefixes "
          f"scanned of {full}; {len(mismatches)} disagreements with the all-leads scan")
    for m in mismatches[:20]:
        print("  ", m)
    return len(mismatches)


def witness_pass() -> int:
    """Prints the witness inputs, the refusals and the disagreements;
    returns the latter's number."""
    start = time.perf_counter()
    inputs, refused, sizes, mismatches = 0, Counter(), Counter(), []

    def outcome(scan, bundle):
        try:
            return scan(bundle)
        except GForgeError as e:
            return type(e).__name__

    for grp, q in normal_forms(Counter()):
        try:
            bundle = build_witness(GradedAlgebra(q))
        except GForgeError as e:
            refused[type(e).__name__] += 1
            continue
        inputs += 1
        got = outcome(nonvanishing_set, bundle)
        sizes[len(bundle.designated)] += 1
        if got != outcome(helpers.nonvanishing_set_by_product, bundle):
            mismatches.append((grp.order, q.sub.elements, q.alpha.modulus, q.entries))
    print(f"nonvanishing_set: {inputs} witness inputs (normal forms of the k-form pass; "
          f"d_e: {dict(sorted(sizes.items()))}), {time.perf_counter() - start:.1f} s; "
          f"build_witness refused: {dict(refused)}; {len(mismatches)} disagreements "
          "with the product scan")
    for m in mismatches[:20]:
        print("  ", m)
    return len(mismatches)


def semidirect_pass() -> int:
    """Prints the k-form outcome counts per mode on the semidirect family,
    the inputs on which the modes differ and, by name (seed, action-p-index
    and the modulus m), every input on which mode "corrected" is not ok;
    returns the number of PreconditionErrors."""
    start = time.perf_counter()
    counts = {mode: Counter() for mode in MODES}
    inputs, differ, unnormalized, not_ok = 0, 0, Counter(), []
    for seed in SEMIDIRECT_SEEDS:
        for name, p in helpers.semidirect_pair_presentations(random.Random(seed),
                                                             count=SEMIDIRECT_COUNT):
            try:
                q = normalize(p)
            except GForgeError as e:
                unnormalized[type(e).__name__] += 1
                continue
            inputs += 1
            outcomes = set()
            for mode in MODES:
                got = helpers.span_outcome(lambda: build_k_form(q, mode).report, ())
                kind = (got.__name__ if isinstance(got, type)
                        else "ok" if got[2] else "not ok")
                counts[mode][kind] += 1
                if mode == "corrected" and kind == "not ok":
                    not_ok.append(f"seed {seed}, {name} (m = {p.alpha.modulus})")
                outcomes.add(got)
            differ += len(outcomes) > 1
    print(f"semidirect pairs: {inputs} normal forms (seeds {SEMIDIRECT_SEEDS}, "
          f"{SEMIDIRECT_COUNT} per action), {time.perf_counter() - start:.1f} s; "
          f"normalize failed: {dict(unnormalized)}; the modes differ on {differ}")
    for mode, c in counts.items():
        print(f"mode {mode}: " + ", ".join(f"{n} {name}" for name, n in sorted(c.items())))
    for line in not_ok:
        print(f"  corrected not ok: {line}")
    return sum(c["PreconditionError"] for c in counts.values())


def scale_rungs():
    """(label, G, H) of the scale pass: D256, with s^a at a and s^a t at
    256 + a, and H the rotations of order k or the dihedral subgroup
    <s^(256/k), t> of order 2k."""
    grp = dihedral(256)
    rungs = [(f"rotations of order {k}", tuple(range(0, 256, 256 // k))) for k in (64, 128, 256)]
    rungs += [(f"D{k}", tuple(x for a in range(0, 256, 256 // k) for x in (a, 256 + a)))
              for k in (32, 64, 128)]
    return [(label, grp, elems) for label, elems in rungs]


def kform_rungs():
    """(label, p, normal form) of the k-form rungs of the scale pass: the
    bicharacter class of C_p x C_p at n = p on the tuple (0,)."""
    for p in KFORM_PRIMES:
        grp = direct_product(cyclic(p), cyclic(p))
        sub = SubgroupData(grp, range(p * p))
        yield f"C{p} x C{p}", p, normalize(Presentation(grp, sub, helpers.pairing_cocycle(sub, p),
                                                        (0,)))


def scale_pass() -> int:
    """Prints the ms of each step per rung and the disagreements; returns
    the latter's number."""
    start = time.perf_counter()
    mismatches = []

    def timed(call):
        t = time.perf_counter()
        out = call()
        return out, f"{(time.perf_counter() - t) * 1e3:.0f} ms"

    for label, grp, elems in scale_rungs():
        for m in SCALE_MODULI:
            rng = random.Random(f"scale:{label}:{m}")
            sub = SubgroupData(grp, elems)
            f = [0] + [rng.randrange(m) for _ in range(sub.order - 1)]
            alpha = shift_by_coboundary(trivial_cocycle(sub, m), f)

            def fresh():
                return Presentation(grp, sub, alpha, (0, 257))

            nf, t_norm = timed(lambda: normalize_with_details(fresh()))
            p = fresh()
            _, t_kns = timed(lambda: compute_KNS(p))
            try:
                _, t_cls = timed(lambda: classify(p))
            except PreconditionError:
                t_cls = "refused (disconnected)"
            q = apply_move(fresh(), {"type": "translate", "g": rng.randrange(grp.order)})
            w, t_iso = timed(lambda: iso_witness(p, q))
            want, t_oracle = timed(lambda: helpers.normalize_with_details_by_tables(fresh()))
            agree = nf == want
            if not agree or w is None:
                mismatches.append((label, m, "normalize" if not agree else "iso_witness"))
            print(f"  D256 > {label}, m = {m}: normalize {t_norm}, compute_KNS {t_kns}, "
                  f"classify {t_cls}, iso_witness {t_iso}; table oracle "
                  f"{'agrees' if agree else 'DISAGREES'} ({t_oracle})")
    for label, p, q in kform_rungs():
        res, t_form = timed(lambda: build_k_form(q))
        rep = res.report
        want, t_oracle = timed(
            lambda: helpers.span_report_full_closure(*helpers.span_args(q, "corrected")))
        if not (rep.ok and rep.k_dim == p * p):
            mismatches.append((label, "build_k_form", rep))
        elif want != rep:
            mismatches.append((label, "full closure", rep, want))
        print(f"  {label}, bicharacter class at n = {p}: build_k_form {t_form}, "
              f"k_dim = {rep.k_dim}, ok={rep.ok}; full closure "
              f"{'agrees' if want == rep else 'DISAGREES'} ({t_oracle})")
    print(f"scale: {len(scale_rungs()) * len(SCALE_MODULI)} rungs at the group_order cap and "
          f"{len(KFORM_PRIMES)} k-form rungs, {time.perf_counter() - start:.1f} s; "
          f"{len(mismatches)} disagreements")
    for m in mismatches:
        print("  ", m)
    return len(mismatches)


def main() -> int:
    failures = (presentation_pass() + iso_pass() + h2_pass() + kform_pass()
                + product_pass() + identity_pass() + witness_pass() + semidirect_pass()
                + scale_pass())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
