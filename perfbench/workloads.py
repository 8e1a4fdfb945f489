"""The four seeded workloads of the gforge benchmark.

Each builder takes the freshly imported gforge package, a random.Random made
from the seed, and a `tiny` flag (a few ops only, for the smoke tests). It
returns a Workload: the fixed list of ops that one round runs, plus every
input it built, which the run keeps alive. An op is one closed-loop call
into the public gforge API; its check compares the output with what the
benchmark derives on its own (see checks.py) or with a property the method
must have. Inputs are built here, at set-up, and never inside an op.
"""

from __future__ import annotations

import importlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import gcd
from typing import Callable

import checks
from checks import expect

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(ROOT, "tests", "data")
# Word bound of the orbit and k-form ops. At the default of 4 a swap op
# costs about 2 s; at 3 it stays below 0.3 s with the same invariant chain.
WORD_BOUND = 3


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list[Op]
    keep: list = field(default_factory=list)


# shared builders


def load_corpus(g, names) -> dict:
    """Presentations of the bundled corpus, read by the gforge schema reader."""
    schemas = importlib.import_module("gforge.schemas")
    out = {}
    for name in names:
        with open(os.path.join(CORPUS_DIR, f"{name}.json"), encoding="utf-8") as fh:
            out[name] = schemas.parse_presentation(json.load(fh))
    return out


def group_pool(g) -> dict:
    """The test group pool: cyclic, dihedral, C2xD3 and small abelian groups."""
    c2, c3, c4 = g.cyclic(2), g.cyclic(3), g.cyclic(4)
    pool = {f"C{k}": g.cyclic(k) for k in range(2, 17)}
    pool.update({f"D{k}": g.dihedral(k) for k in range(2, 9)})
    pool["C2xC2"] = g.direct_product(c2, c2)
    pool["C2xC4"] = g.direct_product(c2, c4)
    pool["C3xC3"] = g.direct_product(c3, c3)
    pool["C4xC4"] = g.direct_product(c4, c4)
    pool["C2xC2xC2"] = g.direct_product(pool["C2xC2"], c2)
    pool["C2xD3"] = g.direct_product(c2, g.dihedral(3))
    return pool


def subgroups(grp) -> list[tuple[int, ...]]:
    """Every subgroup generated by at most two elements, plus the group."""
    n = grp.order
    table = [[grp.mul(a, b) for b in range(n)] for a in range(n)]
    seen = {tuple(range(n))}
    for a in range(n):
        for b in range(a, n):
            elems = {0, a, b}
            frontier = list(elems)
            while frontier:
                nxt = []
                for x in frontier:
                    for y in (a, b):
                        z = table[x][y]
                        if z not in elems:
                            elems.add(z)
                            nxt.append(z)
                frontier = nxt
            seen.add(tuple(sorted(elems)))
    return sorted(seen, key=lambda s: (len(s), s))


def signature(grp, elems) -> tuple:
    """("ab", prime-power invariants) or ("dih", n), computed by checks.py."""
    if checks.is_abelian(grp, elems):
        return ("ab", tuple(checks.abelian_invariants(grp, elems)))
    n = checks.dihedral_half(grp, elems)
    return ("dih", n) if n else ("other", len(elems))


def catalogue(pool: dict, max_order: int) -> dict:
    """signature -> [(group, subgroup elements)] over the whole pool."""
    out: dict = {}
    for grp in pool.values():
        for elems in subgroups(grp):
            if 1 < len(elems) <= max_order:
                out.setdefault(signature(grp, elems), []).append((grp, elems))
    return out


class Subgroups:
    """SubgroupData objects and their h2_classes, made once per set-up.

    A cocycle belongs to the SubgroupData object it was made on, so every
    builder takes its subgroups from here.
    """

    def __init__(self, g):
        self.g = g
        self.subs: dict = {}
        self.classes: dict = {}

    def get(self, grp, elems):
        key = (id(grp), tuple(elems))
        if key not in self.subs:
            self.subs[key] = self.g.SubgroupData(grp, elems)
        return self.subs[key]

    def h2(self, sub, m):
        key = (id(sub), m)
        if key not in self.classes:
            self.classes[key] = self.g.h2_classes(sub, m)
        return self.classes[key]


def shifted(rng, g, alpha):
    """alpha times a random coboundary: same class, another table."""
    f = [0] + [rng.randrange(alpha.modulus) for _ in range(alpha.sub.order - 1)]
    return g.shift_by_coboundary(alpha, f)


def random_move(rng, p) -> dict:
    kind = rng.choice(("entry", "permute", "translate"))
    if kind == "entry":
        return {"type": "entry", "pos": rng.randrange(len(p.entries)),
                "h": rng.choice(p.sub.elements)}
    if kind == "permute":
        perm = list(range(len(p.entries)))
        rng.shuffle(perm)
        return {"type": "permute", "perm": perm}
    return {"type": "translate", "g": rng.randrange(p.group.order)}


def spread(rng, ops: list[Op]) -> list[Op]:
    """Interleave heavy and light ops: a seeded shuffle of the op list."""
    ops = list(ops)
    rng.shuffle(ops)
    return ops


# orbit

ORBIT_CORPUS = ("pauli", "swap", "inner", "d6", "mat3")
# Seeded bases: (pool group, subgroup, modulus, entries). The seed picks a
# nontrivial class, a coboundary shift of it and a random member of the move
# orbit of these entries, never the shape itself, so every seed does the
# same amount of invariant-chain work.
ORBIT_SEEDED = (
    ("C2xC4", tuple(range(8)), 2, (0,)),
    ("D4", tuple(range(8)), 4, (0,)),
    ("C3xC3", tuple(range(9)), 6, (0,)),
    ("C4xC4", (0, 2, 8, 10), 2, (0, 1, 4)),
    ("D8", (0, 4, 8, 12), 2, (0, 1)),  # not normal: translates move H
)
OPS_PER_BASE = 5


def orbit_bases(rng, g, pool, subs) -> dict:
    bases = load_corpus(g, ORBIT_CORPUS)
    for name, elems, m, entries in ORBIT_SEEDED:
        sub = subs.get(pool[name], elems)
        alpha = shifted(rng, g, rng.choice(subs.h2(sub, m)[1:]))
        p = g.Presentation(pool[name], sub, alpha, entries)
        for _ in range(rng.randint(5, 10)):
            p = g.apply_move(p, random_move(rng, p))
        bases[f"{name}/{len(elems)}"] = p
    return bases


def orbit_op(rng, g, label, base, ref) -> Op:
    L = WORD_BOUND
    base_nf, base_chain, base_flags = ref
    moves = []
    q = base
    for _ in range(rng.randint(1, 20)):
        mv = random_move(rng, q)
        q = g.apply_move(q, mv)
        moves.append(mv)

    def run():
        q = base
        for mv in moves:
            q = g.apply_move(q, mv)
        return (q, g.normalize(q, L), g.compute_KNS(q, L), g.classify(q, L),
                g.iso_test(base, q))

    def check(res):
        q, nf, chain, flags, iso = res
        expect(nf == base_nf, "normal form differs inside the orbit")
        expect(iso, "a move orbit member is not isomorphic to its base")
        expect((len(chain.K), len(chain.N), len(chain.S))
               == (len(base_chain.K), len(base_chain.N), len(base_chain.S)),
               "|K|, |N|, |S| changed along the orbit")
        expect(chain.n == base_chain.n, "n changed along the orbit")
        expect(chain.sbar_image == base_chain.sbar_image, "sBar changed")
        expect(chain.field == base_chain.field, "the minimal field changed")
        expect(flags == base_flags, "classification flags changed")
        want_k = checks.multiset_stabilizer(q.group, q.sub.elements, q.entries)
        expect(tuple(chain.K) == want_k, "K is not the multiset stabilizer")
        if checks.is_abelian(q.group, q.sub.elements):
            expect(chain.n == checks.commutator_order(q.alpha),
                   "n differs from the commutator order of the cocycle")

    return Op(f"orbit {label}", run, check)


def build_orbit(g, rng, tiny=False) -> Workload:
    pool = group_pool(g)
    bases = orbit_bases(rng, g, pool, Subgroups(g))
    if tiny:
        bases = {k: b for k, b in bases.items() if b.sub.order <= 4}
    ops = []
    for label, b in bases.items():
        ref = (g.normalize(b, WORD_BOUND), g.compute_KNS(b, WORD_BOUND),
               g.classify(b, WORD_BOUND))
        ops += [orbit_op(rng, g, label, b, ref)
                for _ in range(1 if tiny else OPS_PER_BASE)]
    return Workload(spread(rng, ops), [pool, bases])


# cohomology

# (subgroup signature, m): the seed picks the ambient pool group and the
# embedding of each type, never the type itself, so every seed does the same
# amount of linear algebra. The five D5 calls put the tail percentile inside
# a run of equal ops.
H2_PLAN = (
    (("ab", (2, 2)), 2), (("ab", (2, 2)), 3), (("ab", (2, 2)), 4),
    (("ab", (2, 2)), 6), (("ab", (3, 3)), 3), (("ab", (3, 3)), 6),
    (("ab", (2, 4)), 2), (("ab", (2, 4)), 4), (("ab", (2, 2, 2)), 2),
    (("ab", (2, 2, 2)), 6), (("dih", 4), 2), (("dih", 4), 4),
    (("dih", 3), 2), (("dih", 3), 3), (("dih", 6), 2), (("dih", 6), 6),
    (("dih", 5), 2), (("dih", 5), 2), (("dih", 5), 2), (("dih", 5), 2),
    (("dih", 5), 2), (("ab", (3, 4)), 6), (("ab", (2, 3)), 6),
    (("ab", (8,)), 2), (("ab", (9,)), 3),
)
# iso_witness pairs: (pool group, subgroup, moduli, entries length). The
# translates (isomorphic) carry a coboundary-shifted cocycle; the class
# pairs (not isomorphic: conjugation is trivial in an abelian group) have one
# entry, so iso_witness tries exactly the |H| translations that fix it.
TRANSLATE_SHAPES = (
    ("C2xC4", (0, 2, 4, 6), (2, 4, 6), 2),
    ("C4xC4", (0, 1, 2, 3, 8, 9, 10, 11), (2, 4), 2),
    ("C3xC3", tuple(range(9)), (3, 6), 1),
    ("D8", (0, 2, 4, 6, 8, 10, 12, 14), (2, 4), 2),
    ("D8", (0, 4, 8, 12), (2,), 2),  # not normal: the translate moves H
)
CLASS_SHAPES = (
    ("C4xC4", (0, 2, 8, 10), (2, 4, 6), 1),
    ("C4xC4", (0, 1, 2, 3, 8, 9, 10, 11), (2, 4), 1),
    ("C3xC3", tuple(range(9)), (3, 6), 1),
)
TRANSLATE_PAIRS = 13
CLASS_PAIRS = 12


def h2_op(g, label, sub, m) -> Op:
    want = checks.schur_torsion_count(sub.group, sub.elements, m)

    def run():
        return g.h2_classes(sub, m)

    def check(classes):
        expect(len(classes) == want,
               f"{len(classes)} classes, the Schur multiplier gives {want}")
        expect(not any(any(row) for row in classes[0].exps),
               "the trivial class is not first")
        expect(all(c.modulus == m and c.sub.elements == sub.elements
                   for c in classes), "a class lives on the wrong subgroup")

    return Op(f"h2_classes {label} m={m}", run, check)


def iso_op(g, label, p1, p2, iso: bool) -> Op:
    grp = p1.group

    def run():
        return g.iso_witness(p1, p2)

    def check(w):
        if not iso:
            expect(w is None, "presentations of different classes matched")
            return
        expect(w is not None, "a translate was not found isomorphic")
        wi = next(x for x in range(grp.order) if grp.mul(w, x) == 0)
        moved_sub = {grp.mul(grp.mul(w, h), wi) for h in p1.sub.elements}
        expect(moved_sub == set(p2.sub.elements), "witness does not carry H")
        moved = checks.coset_multiset(grp, p2.sub.elements,
                                      [grp.mul(w, x) for x in p1.entries])
        expect(moved == checks.coset_multiset(grp, p2.sub.elements, p2.entries),
               "witness does not carry the coset multiset")

    return Op(f"iso_witness {label}", run, check)


def build_cohomology(g, rng, tiny=False) -> Workload:
    pool = group_pool(g)
    cat = catalogue(pool, 12)
    subs = Subgroups(g)
    ops = [h2_op(g, f"{sig[0]}{sig[1]}", subs.get(*rng.choice(cat[sig])), m)
           for sig, m in (H2_PLAN[:4] if tiny else H2_PLAN)]
    for k in range(2 if tiny else TRANSLATE_PAIRS):
        name, elems, moduli, length = TRANSLATE_SHAPES[k % len(TRANSLATE_SHAPES)]
        grp, sub = pool[name], subs.get(pool[name], elems)
        entries = tuple(rng.randrange(grp.order) for _ in range(length))
        alpha = rng.choice(subs.h2(sub, rng.choice(moduli)))
        p1 = g.Presentation(grp, sub, shifted(rng, g, alpha), entries)
        moved = g.apply_move(p1, {"type": "translate", "g": rng.randrange(grp.order)})
        p2 = g.Presentation(grp, moved.sub, shifted(rng, g, moved.alpha), moved.entries)
        ops.append(iso_op(g, f"translate {name}/{len(elems)}", p1, p2, True))
    for k in range(2 if tiny else CLASS_PAIRS):
        name, elems, moduli, length = CLASS_SHAPES[k % len(CLASS_SHAPES)]
        grp, sub = pool[name], subs.get(pool[name], elems)
        entries = tuple(rng.randrange(grp.order) for _ in range(length))
        a1, a2 = rng.sample(subs.h2(sub, rng.choice(moduli)), 2)
        p1 = g.Presentation(grp, sub, shifted(rng, g, a1), entries)
        p2 = g.Presentation(grp, sub, shifted(rng, g, a2), entries)
        ops.append(iso_op(g, f"classes {name}/{len(elems)}", p1, p2, False))
    return Workload(spread(rng, ops), [pool, cat, subs])


# algebra

# k-form inputs: (pool group, subgroup, modulus, entries). The seed picks a
# nontrivial class and a coboundary shift; the op closes the span of the
# normal form made at set-up.
KFORM_PLAN = (
    ("C2xC2", (0, 1, 2, 3), 2, (0, 1, 2, 3)),
    ("C2xC2", (0, 1, 2, 3), 2, (0, 1, 2, 3)),
    ("C4xC4", (0, 2, 8, 10), 2, (0, 1, 4)),
    ("C4xC4", (0, 2, 8, 10), 2, (0, 1, 4)),
    ("C3xC3", tuple(range(9)), 3, (0, 0)),
    ("D4", (0, 4), 1, (0, 1, 2, 3)),
    ("D4", (0, 4), 1, (0, 1, 2, 3)),
    ("C2xD3", (0, 6), 1, (0, 1, 3)),
    ("D4", (0, 2, 4, 6), 2, (0, 0, 1)),
    ("D4", (0, 2, 4, 6), 2, (0, 0, 1)),
)
# algebras for the product batches, in the same form
PRODUCT_PLAN = (
    ("C2xC2", (0, 1, 2, 3), 2, (0, 1)),
    ("C3xC3", tuple(range(9)), 3, (0,)),
    ("C4xC4", (0, 2, 8, 10), 4, (0, 1, 4)),
    ("D3", (0, 3), 1, (0, 1, 2, 3)),
    ("C2xD3", (0, 1, 2, 3, 4, 5), 2, (0, 6)),
)
PRODUCT_BATCHES = 40


def planned_presentation(rng, g, pool, subs, name, elems, m, entries):
    sub = subs.get(pool[name], elems)
    reps = subs.h2(sub, m)
    return g.Presentation(pool[name], sub, shifted(rng, g, rng.choice(reps[1:] or reps)),
                          entries)


def kform_op(g, p) -> Op:
    def run():
        return g.build_k_form(p, word_bound=WORD_BOUND)

    def check(res):
        rep = res.report
        expect(rep.ok, "k-form report is not ok")
        expect(rep.k_dim == res.algebra.dim == rep.expected_dim,
               "k-dimension differs from dim A")
        expect(rep.f_span_full, "the closure does not span A over F")

    return Op("build_k_form", run, check)


def dense_element(rng, g, alg, triples):
    m = alg.alpha.modulus
    terms = {}
    for t in triples:
        q = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2, 3)))
        terms[t] = g.CycScalar.from_root(m, rng.randrange(m)) * q
    return alg.element(terms)


def degree_of(grp, entries, triple) -> int:
    h, i, j = triple
    gi = next(x for x in range(grp.order) if grp.mul(entries[i], x) == 0)
    return grp.mul(grp.mul(gi, h), entries[j])


def product_op(rng, g, alg) -> Op:
    basis = sorted(alg._deg)
    x, y, z = (dense_element(rng, g, alg, basis) for _ in range(3))
    da, db = (rng.choice(sorted(alg.dims)) for _ in range(2))
    a = dense_element(rng, g, alg, alg.basis_of_degree(da))
    b = dense_element(rng, g, alg, alg.basis_of_degree(db))
    one = alg.one()

    def run():
        return (g.multiply(g.multiply(x, y), z), g.multiply(x, g.multiply(y, z)),
                g.multiply(x, one), g.multiply(one, x), g.multiply(a, b))

    def check(res):
        left, right, xo, ox, ab = res
        expect(left == right, "(xy)z differs from x(yz)")
        expect(xo == x and ox == x, "1 is not a two-sided unit")
        grp = alg.group
        want = grp.mul(da, db)
        degs = {degree_of(grp, alg.entries, t) for t in ab.terms}
        expect(degs <= {want}, "deg(ab) is not deg(a) deg(b)")

    return Op("multiply", run, check)


def build_algebra(g, rng, tiny=False) -> Workload:
    pool = group_pool(g)
    subs = Subgroups(g)
    ops = []
    keep = [pool, subs]
    for spec in KFORM_PLAN[:2] if tiny else KFORM_PLAN:
        nf = g.normalize(planned_presentation(rng, g, pool, subs, *spec), WORD_BOUND)
        keep.append(nf)
        ops.append(kform_op(g, nf))
    algebras = [g.GradedAlgebra(planned_presentation(rng, g, pool, subs, *spec))
                for spec in PRODUCT_PLAN]
    keep.append(algebras)
    for k in range(2 if tiny else PRODUCT_BATCHES):
        ops.append(product_op(rng, g, algebras[k % len(algebras)]))
    return Workload(spread(rng, ops), keep)


# oracle


def standard_polynomial(g, r: int):
    ids = [f"x{t + 1}" for t in range(r)]
    monos = tuple((_sign(s), tuple(ids[t] for t in s))
                  for s in permutations(range(r)))
    return g.GradedPolynomial(tuple((v, 0) for v in ids), monos)


def _sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inv % 2 else 1


def hall_polynomial(g):
    """[[x, y]^2, z] in degree-e variables, an identity of 2x2 matrices."""
    c = (("x", "y", 1), ("y", "x", -1))
    sq = [(s1 * s2, (a1, b1, a2, b2)) for a1, b1, s1 in c for a2, b2, s2 in c]
    monos = [(s, w + ("z",)) for s, w in sq] + [(-s, ("z",) + w) for s, w in sq]
    return g.GradedPolynomial((("x", 0), ("y", 0), ("z", 0)), tuple(monos))


def pattern_presentation(rng, g, pool, subs, mults):
    """H, cocycle and tuple whose right cosets have the given multiplicities."""
    names = sorted(pool)
    while True:
        grp = pool[rng.choice(names)]
        elems = rng.choice(subgroups(grp))
        if len(elems) <= 4 and grp.order // len(elems) >= len(mults):
            break
    sub = subs.get(grp, elems)
    cosets = rng.sample(sub.transversal, len(mults))
    entries = []
    for cid, k in zip(cosets, mults):
        entries += [sub.cosets[cid][rng.randrange(sub.order)]] * k
    rng.shuffle(entries)
    # m = 2 keeps every structure constant in {1, -1}, so the cost of a scan
    # does not depend on which coboundary the seed shifts by
    reps = subs.h2(sub, 2)
    return g.Presentation(grp, sub, shifted(rng, g, rng.choice(reps)), tuple(entries))


def identity_op(g, label, poly, alg, identity: bool) -> Op:
    space = 1
    for v, d in poly.variables:
        space *= len(alg.basis_of_degree(d))
    if poly.multilinear:
        want_space = space
    else:
        # linearization keeps the degrees and makes every occurrence a variable
        dims = {d: len(alg.basis_of_degree(d)) for _, d in poly.variables}
        want_space = 1
        for v in poly.monomials[0][1]:
            want_space *= dims[poly.vdeg[v]]

    def run():
        return g.identity_report(poly, alg)

    def check(rep):
        expect(rep.identity == identity,
               f"identity verdict {rep.identity}, expected {identity}")
        expect(rep.search_space == want_space, "search space size is wrong")
        if identity:
            expect(rep.checked == rep.search_space, "identity scan stopped early")
            return
        lin = g.linearize(poly) if rep.linearized else poly
        expect(checks.is_nonzero(checks.fold_value(lin, alg, rep.counterexample)),
               "the counterexample evaluates to zero")

    return Op(f"identity_report {label}", run, check)


def mproduct_ops(g, name, p, chain, m_product) -> tuple[list[Op], list[Op]]:
    """Ops on conjugate twists by S (identities) and on Galois twists by
    units outside the character image (non-identities)."""
    conj = [identity_op(g, f"m-product {name} conjugate",
                        m_product,
                        g.twisted_group_algebra(g.conjugate_cocycle(p.alpha, s)), True)
            for s in chain.S]
    galois = []
    for j in range(1, chain.n):
        if gcd(j, chain.n) == 1 and j not in chain.sbar_image:
            tw = g.galois_twist(p.alpha, g.lift_unit(j, chain.n, p.alpha.modulus))
            galois.append(identity_op(g, f"m-product {name} galois", m_product,
                                      g.twisted_group_algebra(tw), False))
    return conj, galois


MULTIPLICITY_PLAN = (  # (multiplicities, k): s_2k identity, s_(2k-1) not
    ((2, 2), 2), ((2, 2), 2), ((2, 2, 1), 2), ((2, 1), 2), ((1, 1, 1), 1),
)
S2K_OPS = 16
S2K1_OPS = 16
MPRODUCT_OPS = 16
HALL_OPS = 2


def build_oracle(g, rng, tiny=False) -> Workload:
    pool = group_pool(g)
    subs = Subgroups(g)
    keep = [pool, subs]
    algs = []
    for mults, k in MULTIPLICITY_PLAN:
        alg = g.GradedAlgebra(pattern_presentation(rng, g, pool, subs, mults))
        algs.append((alg, k, mults))
    keep.append(algs)
    s_even = {k: standard_polynomial(g, 2 * k) for k in (1, 2)}
    s_odd = {k: standard_polynomial(g, 2 * k - 1) for k in (1, 2)}
    ops = []
    n_even, n_odd = (2, 2) if tiny else (S2K_OPS, S2K1_OPS)
    for t in range(n_even):
        alg, k, mults = algs[t % len(algs)]
        ops.append(identity_op(g, f"s{2 * k} {mults}", s_even[k], alg, True))
    for t in range(n_odd):
        alg, k, mults = algs[t % len(algs)]
        ops.append(identity_op(g, f"s{2 * k - 1} {mults}", s_odd[k], alg, False))

    # m-products over the corpus and a seeded twisted group algebra of C3xC3
    bases = load_corpus(g, ("pauli", "swap", "inner"))
    c33 = pool["C3xC3"]
    sub = subs.get(c33, range(9))
    bases["seeded"] = g.Presentation(
        c33, sub, shifted(rng, g, rng.choice(subs.h2(sub, 3)[1:])), (0,))
    m_ops, galois_ops = [], []
    for name, p in bases.items():
        chain = g.compute_KNS(p, WORD_BOUND)
        wit = g.find_primitive_binomial(p.alpha, chain.n, WORD_BOUND)
        m_product = g.build_m_product(p.alpha, chain, wit)
        conj, galois = mproduct_ops(g, name, p, chain, m_product)
        m_ops += conj
        galois_ops += galois
    keep += [bases, m_ops, galois_ops]
    n_m = 2 if tiny else MPRODUCT_OPS
    ops += galois_ops[:n_m] + rng.sample(m_ops, max(0, n_m - len(galois_ops)))

    hall = hall_polynomial(g)
    keep.append(hall)
    hall_alg = next(alg for alg, k, mults in algs if mults == (2, 1))
    for _ in range(1 if tiny else HALL_OPS):
        ops.append(identity_op(g, "hall (2, 1)", hall, hall_alg, True))
    return Workload(spread(rng, ops), keep)


WORKLOADS = {
    "orbit": build_orbit,
    "cohomology": build_cohomology,
    "algebra": build_algebra,
    "oracle": build_oracle,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Every input of the workload, made from the seed with the loaded gforge."""
    g = importlib.import_module("gforge")
    return WORKLOADS[name](g, random.Random(f"{name}:{seed}"), tiny)
