"""Shared builders for the test corpus and random instances, and reference
implementations that the library is tested against."""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct
from math import factorial, gcd, lcm, prod

import numpy as np

from gforge.cyclo import (CycScalar, SubfieldDescriptor, _power_rows, _reduce_poly,
                          cyclotomic_polynomial, phi)
from gforge import algebra as algebra_mod
from gforge import identities as identities_mod
from gforge import twisted as twisted_mod
from gforge.algebra import (AlgElement, KFormReport, _apply, _lift, _monomials, _operator,
                            _root_shifts, _same_algebra, multiply)
from gforge.config import CAPS
from gforge.errors import (BudgetExceeded, CapExceeded, GForgeError, GroupError, InternalError,
                           PreconditionError, PresentationError)
from gforge.groups import (CosetMultiset, Group, SubgroupData, _reach, cyclic,
                           dihedral, direct_product, semidirect_product)
from gforge.identities import GradedPolynomial, IdentityReport, linearize
from gforge.modlinalg import (Echelon, howell_echelon, kernel_mod, reduce_least, reduce_mod,
                              solve_in_image, solve_mod, split_echelon, xgcd)
from gforge.presentation import (InvariantChain, NormalForm, Presentation, _conjugate_chain,
                                 _factored_form, apply_move, classify, compute_KNS,
                                 full_derivative, iso_test, normalize,
                                 normalize_with_details, same_group, validate_presentation)
from gforge.twisted import (BinomialDatum, Cocycle, _check_modulus,
                            _delta, _expand, _match_perm, binomial_datum, class_order,
                            conjugate_cocycle, coboundary_rows, galois_character,
                            conjugate_is_cohomologous, h2_classes,
                            make_cocycle, shift_by_coboundary, trivial_cocycle,
                            unit_lifts)


def pairing_cocycle(sub: SubgroupData, p: int) -> Cocycle:
    """Standard pairing on Z_p x Z_p labeled i = a + p*b: alpha = a1 * b2."""
    size = p * p
    exps = [[(i % p) * (j // p) % p for j in range(size)] for i in range(size)]
    return make_cocycle(sub, p, exps)


def build_pauli() -> Presentation:
    grp = direct_product(cyclic(2), cyclic(2))
    sub = SubgroupData(grp, range(4))
    return Presentation(grp, sub, pairing_cocycle(sub, 2), (0,))


def swap_action(hh, x):
    return x if hh == 0 else (x % 3) * 3 + x // 3


def _swap_factors(hh, x):
    """C2 acting on C2^3 (index (a*2 + b)*2 + c) by swapping a and b."""
    return x if hh == 0 else ((x // 2) % 2 * 2 + x // 4) * 2 + x % 2


def chain_ambients():
    """(G, H) pairs, H of the type named by the key and G adding conjugations
    of H that are not inner."""
    c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
    c24 = direct_product(c2, c4)
    c222 = direct_product(direct_product(c2, c2), c2)
    return {
        "C2xC2": (dihedral(4), (0, 2, 4, 6)),
        "C2xC4": (semidirect_product(c24, c2, lambda h, x: c24.inv(x) if h else x),
                  tuple(range(0, 16, 2))),
        "C3xC3": (semidirect_product(direct_product(c3, c3), c2, swap_action),
                  tuple(range(0, 18, 2))),
        "D4": (dihedral(8), tuple(range(0, 16, 2))),
        "D3": (dihedral(6), tuple(range(0, 12, 2))),
        "C2xD3": (direct_product(c2, dihedral(3)), tuple(range(12))),
        "C2^3": (semidirect_product(c222, c2, _swap_factors), tuple(range(0, 16, 2))),
    }


def build_swap_raw() -> Presentation:
    inner = direct_product(cyclic(3), cyclic(3))
    grp = semidirect_product(inner, cyclic(2), swap_action)
    sub = SubgroupData(grp, range(0, 18, 2))
    size = 9
    exps = [[(i % 3) * (j // 3) % 3 for j in range(size)] for i in range(size)]
    return Presentation(grp, sub, make_cocycle(sub, 3, exps), (0, 1))


def build_d6() -> Presentation:
    grp = dihedral(3)
    sub = SubgroupData(grp, (0,))
    return Presentation(grp, sub, trivial_cocycle(sub), (0, 0, 1, 1, 3, 3, 5, 5))


def build_mat3() -> Presentation:
    grp = cyclic(2)
    sub = SubgroupData(grp, (0,))
    return Presentation(grp, sub, trivial_cocycle(sub), (0, 0, 1))


def build_inner() -> Presentation:
    grp = direct_product(cyclic(3), cyclic(3))
    sub = SubgroupData(grp, range(9))
    return Presentation(grp, sub, pairing_cocycle(sub, 3), (0,))


def build_related() -> Presentation:
    """Dihedral case whose two tuple entries share an (H,H)-double coset."""
    grp = dihedral(3)
    sub = SubgroupData(grp, (0, 3))
    return Presentation(grp, sub, trivial_cocycle(sub), (1, 2))


CORPUS_BUILDERS = {
    "pauli": build_pauli,
    "swap": build_swap_raw,
    "d6": build_d6,
    "mat3": build_mat3,
    "inner": build_inner,
}


def group_pool(max_order: int = 16) -> list[Group]:
    pool = [cyclic(k) for k in range(2, max_order + 1)]
    pool += [dihedral(k) for k in range(2, max_order // 2 + 1)]
    c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
    pool += [direct_product(c2, c2), direct_product(c2, c4),
             direct_product(c3, c3), direct_product(c4, c4),
             direct_product(direct_product(c2, c2), c2),
             direct_product(c2, dihedral(3))]
    return [g for g in pool if g.order <= max_order]


def all_subgroups(grp: Group) -> list[tuple[int, ...]]:
    """Every subgroup of grp, as sorted elements, least order first: the
    cyclic subgroups, closed under joining one more element."""
    subs = {grp.closure((a,)) for a in range(grp.order)}
    frontier = set(subs)
    while frontier:
        frontier = {grp.closure(s + (g,)) for s in frontier for g in range(grp.order)} - subs
        subs |= frontier
    return sorted(subs, key=lambda s: (len(s), s))


# The pairwise closures that Group.closure and
# SubfieldDescriptor.from_generators replaced by the walk over words in the
# generators, kept as differential oracles.

def closure_pairwise(grp: Group, elems) -> tuple[int, ...]:
    """The subgroup generated by elems, grown breadth first by multiplying
    each new element by every element reached, on both sides."""
    seen = {0} | set(elems)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen):
                for c in (grp.mul(a, b), grp.mul(b, a)):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(seen))


def unit_closure_pairwise(n: int, gens) -> tuple[int, ...]:
    """The subgroup of (Z/n)* generated by the units gens, grown breadth
    first by multiplying each new unit by every unit reached."""
    seen = {1 % n} | {g % n for g in gens}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen):
                c = (a * b) % n
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return tuple(sorted(seen))


# The scan over every u in 1..m that twisted.unit_lifts replaced by a walk
# through the residue class, and the closure of every degree that
# presentation.validate_presentation replaced by the closure of a
# generating set, kept as differential oracles.

def unit_lifts_by_scan(j: int, n: int, m: int) -> list[int]:
    """twisted.unit_lifts by scanning every u in 1..m for u = j mod n and
    gcd(u, m) = 1."""
    return [u for u in range(1, m + 1) if u % n == j % n and gcd(u, m) == 1]


def connected_by_every_degree(p: Presentation) -> bool:
    """presentation.validate_presentation's verdict from the closure of
    every degree a^-1 h b, a and b coset representatives of the tuple and h
    in H, each degree a generator."""
    grp = p.group
    reps = [cid for cid, _ in p.lam.counts]
    degrees = {grp.mul(grp.mul(grp.inv(a), h), b)
               for a in reps for b in reps for h in p.sub.elements}
    return len(grp.closure(degrees)) == grp.order


def least_generating_size(table) -> int:
    """The least size of a generating set of the group of a product table,
    by search over subsets in order of size."""
    n = len(table)
    for r in range(n):
        for gens in combinations(range(n), r):
            reached, stack = {0}, [0]
            while stack:
                g = stack.pop()
                for s in gens:
                    if table[s][g] not in reached:
                        reached.add(table[s][g])
                        stack.append(table[s][g])
            if len(reached) == n:
                return r
    raise InternalError("no generating set")


def covering_generating_set(table) -> tuple[int, ...]:
    """A generating set picked by coverage, the oracle for the size of
    groups.generating_set: each element is the one whose closure with the
    earlier picks reaches the most elements, the least one on a tie."""
    gens: list[int] = []
    reached = {0}
    while len(reached) < len(table):
        # max keeps the first of equal picks, so the least element
        x, reached = max(((x, _reach(table, gens + [x], set(reached)))
                          for x in range(len(table)) if x not in reached),
                         key=lambda pick: len(pick[1]))
        gens.append(x)
    return tuple(gens)


def normalizer_by_elements(grp: Group, elems) -> tuple[int, ...]:
    """SubgroupData.normalizer as it was before it tested the generators of
    H: every g whose set of conjugates g^-1 h g of all h in H is H."""
    eset = set(elems)
    return tuple(g for g in range(grp.order) if {grp.conj(h, g) for h in elems} == eset)


def random_subgroup(rng: random.Random, grp: Group) -> SubgroupData:
    gens = [rng.randrange(grp.order) for _ in range(rng.randint(0, 2))]
    return SubgroupData(grp, grp.closure(gens))


def random_presentation(rng: random.Random, pool, max_len: int = 8,
                        with_cocycle: bool = False) -> Presentation:
    grp = rng.choice(pool)
    sub = random_subgroup(rng, grp)
    alpha = trivial_cocycle(sub)
    if with_cocycle and sub.order <= 9:
        for m in rng.sample((2, 3, 4), 3):
            classes = h2_classes(sub, m)
            if len(classes) > 1 and rng.random() < 0.7:
                alpha = rng.choice(classes)
                break
    entries = tuple(rng.randrange(grp.order)
                    for _ in range(rng.randint(1, max_len)))
    return Presentation(grp, sub, alpha, entries)


PATTERN_SUBGROUPS = {  # m -> subgroups H, each a list of cyclic orders
    2: ((2,), (2, 2), (4,)),
    3: ((3,), (3, 3)),
    4: ((4,), (2, 2), (2,)),
    6: ((6,), (2,), (3,)),
}


def pattern_presentation(rng: random.Random, m: int, mults) -> Presentation:
    """G = C_k x H with a seeded cocycle class over Z/m shifted by a seeded
    coboundary, and a tuple whose k entries lie in distinct H-cosets with
    the given multiplicities (shuffled)."""
    h_grp = None
    for k in rng.choice(PATTERN_SUBGROUPS[m]):
        h_grp = cyclic(k) if h_grp is None else direct_product(h_grp, cyclic(k))
    grp = direct_product(cyclic(len(mults)), h_grp)
    sub = SubgroupData(grp, range(h_grp.order))
    alpha = shift_by_coboundary(
        rng.choice(h2_classes(sub, m)),
        [0] + [rng.randrange(m) for _ in range(h_grp.order - 1)])
    entries = []
    for coset, mult in enumerate(mults):
        entries += [coset * h_grp.order + rng.randrange(h_grp.order)] * mult
    rng.shuffle(entries)
    return Presentation(grp, sub, alpha, tuple(entries))


def _pair_actions(p: int) -> dict:
    """name -> (k, action of C_k on C_p x C_p), elements labeled a + p*b:
    the coordinate swap, the rotation (a, b) -> (-b, a), the inversion, and
    the scaling (a, b) -> (g a, b) by a unit g of largest order mod p."""
    def swap(h, x):
        return x if h == 0 else (x % p) * p + x // p

    def rot(h, x):
        a, b = x % p, x // p
        for _ in range(h):
            a, b = -b % p, a
        return a + p * b

    def inv(h, x):
        return x if h == 0 else -(x % p) % p + p * (-(x // p) % p)

    g, k = {3: (2, 2), 4: (3, 2), 5: (2, 4)}.get(p, (1, 1))

    def scale(h, x):
        return pow(g, h, p) * (x % p) % p + p * (x // p)

    actions = {"swap": (2, swap), "rot": (4, rot), "inv": (2, inv)}
    if k > 1:
        actions["scale"] = (k, scale)
    return actions


def semidirect_pair_presentations(rng: random.Random, ps=(2, 3, 4, 5), count: int = 1):
    """(name, presentation) pairs on G = (C_p x C_p) x| C_k for every action
    of _pair_actions, with H = C_p x C_p: a seeded multiple of the pairing
    class, read mod p or 2p and shifted by a seeded coboundary, and a tuple
    of either one entry per H-coset or 1-3 random entries."""
    for p in ps:
        for name, (k, act) in _pair_actions(p).items():
            grp = semidirect_product(direct_product(cyclic(p), cyclic(p)), cyclic(k), act)
            sub = SubgroupData(grp, range(0, grp.order, k))
            size = p * p
            for t in range(count):
                c, m = rng.randrange(1, p), p * rng.choice((1, 1, 2))
                alpha = make_cocycle(sub, m, [[c * (i % p) * (j // p) * (m // p) for j in range(size)]
                                              for i in range(size)])
                alpha = shift_by_coboundary(alpha, [0] + [rng.randrange(m) for _ in range(size - 1)])
                if rng.random() < 0.5:
                    entries = tuple(h + rng.randrange(size) * k for h in range(k))
                else:
                    entries = tuple(rng.randrange(grp.order) for _ in range(rng.randint(1, 3)))
                yield f"{name}-p{p}-{t}", Presentation(grp, sub, alpha, entries)


def random_move(rng: random.Random, p: Presentation) -> dict:
    kind = rng.choice(("entry", "permute", "translate"))
    if kind == "entry":
        return {"type": "entry", "pos": rng.randrange(len(p.entries)),
                "h": rng.choice(p.sub.elements)}
    if kind == "permute":
        perm = list(range(len(p.entries)))
        rng.shuffle(perm)
        return {"type": "permute", "perm": perm}
    return {"type": "translate", "g": rng.randrange(p.group.order)}


def sweep_inputs(grp: Group, moduli=(2, 4), subs=None):
    """The small-case sweep over grp: every subgroup in subs (by default every
    one generated by at most 2 elements), m in moduli, every class of
    h2_classes and the tuples (0,) and (0, g)."""
    if subs is None:
        subs = sorted({grp.closure((a, b)) for a in range(grp.order)
                       for b in range(a, grp.order)})
    for elems in subs:
        sub = SubgroupData(grp, elems)
        for m in moduli:
            for alpha in h2_classes(sub, m):
                for g in range(grp.order):
                    yield Presentation(grp, sub, alpha, (0, g) if g else (0,))


# Reference implementations kept as differential oracles for the coset
# factoring of gforge.groups and the direct cohomology computations in
# gforge.twisted and gforge.presentation.

def normalize_with_details_by_tables(p: Presentation,
                                     word_bound: int | None = None) -> NormalForm:
    """presentation.normalize_with_details as it was before the tied
    candidates were compared through their position maps, one per right
    coset of the stabilizer of alpha: every candidate of a least head
    builds its full conjugate table, and the tables are compared as
    tuples."""
    chain = compute_KNS(p, word_bound)
    grp = p.group
    maxmult = max(m for _, m in p.lam.counts)
    heads = []
    for cid, mult in p.lam.counts:
        if mult != maxmult:
            continue
        theta0 = grp.inv(cid)
        ti0 = grp.inv(theta0)
        sub2 = p.sub.conjugated(theta0)
        k2 = frozenset(grp.conj(k, ti0) for k in chain.K)
        s2 = frozenset(grp.conj(s, ti0) for s in chain.S)
        lam2 = CosetMultiset.from_elements(
            sub2, [grp.mul(theta0, x) for x in p.entries])
        ufactor, core = _factored_form(grp, sub2, lam2, k2, s2)
        flat = tuple(
            sub2.coset_id_of[grp.mul(u, rep)]
            for u in ufactor for rep, d in core for _ in range(d)
        )
        heads.append((cid, sub2, flat, ufactor, core))
    least = min((sub2.elements, flat) for _, sub2, flat, _, _ in heads)
    best = None
    for cid, sub2, flat, ufactor, core in heads:
        if (sub2.elements, flat) != least:
            continue
        for c in p.sub.cosets[cid]:
            theta = grp.inv(c)
            alpha2 = conjugate_cocycle(p.alpha, theta, sub2)
            key = (sub2.elements, flat, alpha2.exps)
            if best is None or key < best[0]:
                best = (key, theta, sub2, alpha2, flat, ufactor, core)
    _, theta, sub2, alpha2, flat, ufactor, core = best
    norm = Presentation(grp, sub2, alpha2, flat)
    moved = CosetMultiset.from_elements(sub2, [grp.mul(theta, x) for x in p.entries])
    if norm.lam.counts != moved.counts:
        raise InternalError("normalization changed the coset multiset")
    chain2 = _conjugate_chain(grp, chain, theta)
    if compute_KNS(norm, word_bound) != chain2:
        raise InternalError("invariant chain is not conjugation covariant")
    return NormalForm(
        presentation=norm, theta=theta, transversal_factor=ufactor,
        core_factor=tuple(rep for rep, d in core for _ in range(d)),
        chain=chain2,
    )


def strongly_vp_by_elements(p: Presentation) -> bool:
    """classify's strong verbal primeness as it was decided before it took
    one g per coset of H: H normal, a uniform multiset, and alpha^g ~ alpha
    tested for every g in G."""
    if not p.sub.is_normal or p.lam.uniform_multiplicity() is None:
        return False
    return all(conjugate_is_cohomologous(p.alpha, g, p.alpha)[0]
               for g in range(p.group.order))


def iso_witness_every_element(p1: Presentation, p2: Presentation) -> int | None:
    """presentation.iso_witness as it was before it made one class test per
    left coset of H1: the subgroup, multiset and class tests for every g."""
    if not same_group(p1.group, p2.group):
        raise PreconditionError("presentations live in different ambient groups")
    grp = p1.group
    if p1.sub.order != p2.sub.order or len(p1.entries) != len(p2.entries):
        return None
    h2 = p2.sub.eset
    for g in range(grp.order):
        gi = grp.inv(g)
        if {grp.conj(h, gi) for h in p1.sub.elements} != h2:
            continue
        moved = CosetMultiset.from_elements(
            p2.sub, [grp.mul(g, x) for x in p1.entries])
        if moved.counts != p2.lam.counts:
            continue
        if conjugate_is_cohomologous(p1.alpha, g, p2.alpha)[0]:
            return g
    return None


def iso_pairs(p: Presentation, rng: random.Random):
    """Pairs (p, q) for the iso_witness comparison: q a seeded translate of
    p, and q = p with alpha replaced by each other class of h2_classes on the
    same subgroup at the same modulus."""
    yield p, apply_move(p, {"type": "translate", "g": rng.randrange(p.group.order)})
    for beta in h2_classes(p.sub, p.alpha.modulus):
        if beta.exps != p.alpha.exps:
            yield p, Presentation(p.group, p.sub, beta, p.entries)


def compute_kns_by_elements(p: Presentation) -> InvariantChain:
    """The invariant chain of p computed element by element: the stabilizer
    and frequency tests for every element of N_G(H), closure and
    multiplicativity over all pairs of elements, and one galois_character
    call per H-coset, at the default word bound; neither reads nor keeps
    the chain on p. The reference for compute_KNS, which works on one
    representative per H-coset."""
    grp, sub, lam = p.group, p.sub, p.lam
    ngh = sub.normalizer

    k_stab = tuple(g for g in ngh if lam.translated(g) == lam)
    k_freq = tuple(
        g for g in ngh
        if all(lam.multiplicity(grp.mul(g, b)) == lam.multiplicity(b)
               for b in sub.transversal)
    )
    if not grp.is_subgroup(k_stab):
        raise InternalError("the stabilizer K is not closed under multiplication")
    k_set = set(k_stab)
    factored = lam.blocks_along(k_set) is not None
    scanned = set(k_set)
    maximal = True
    for g in ngh:
        if g in scanned:
            continue
        scanned.update(grp.mul(g, k) for k in k_stab)
        if lam.blocks_along(grp.closure(k_stab + (g,))) is not None:
            maximal = False
            break
    if not (k_set == set(k_freq) and factored and maximal):
        raise InternalError("stabilizer, frequency, and factoring disagree on K")

    n = class_order(p.alpha)
    coset_char: dict[int, int | None] = {}
    for g in ngh:
        cid = sub.coset_id_of[g]
        if cid not in coset_char:
            coset_char[cid] = galois_character(g, p.alpha, n)
    n_part = tuple(g for g in ngh if coset_char[sub.coset_id_of[g]] is not None)
    s_part = tuple(sorted(k_set & set(n_part)))
    if not sub.eset <= set(s_part):
        raise InternalError("the subgroup must be contained in S")
    chars = [(s, coset_char[sub.coset_id_of[s]]) for s in s_part]
    char_of = dict(chars)
    for s1 in s_part:
        for s2 in s_part:
            if (char_of[s1] * char_of[s2] - char_of[grp.mul(s1, s2)]) % n:
                raise InternalError("Galois characters are not multiplicative")
    sbar = tuple(sorted({j for _, j in chars}))
    field = SubfieldDescriptor.from_generators(n, sbar)
    if set(field.units) != set(sbar):
        raise InternalError("character image is not closed under multiplication")
    return InvariantChain(
        K=tuple(sorted(k_set)), N=n_part, S=s_part,
        n=n, image_stable=True, word_bound=CAPS.word_bound,
        s_characters=tuple(chars), sbar_image=sbar, field=field,
    )


def find_theta_by_elements(p1: Presentation, p2: Presentation) -> int | None:
    """find_theta with the multiset stabilizer tested on every element of
    N_G(H) and the least translation taken over its elements; the reference
    for find_theta, which reads the stabilizer one H-coset at a time."""
    if full_derivative(p1) != full_derivative(p2):
        return None
    grp = p1.group
    theta0 = grp.mul(p2.entries[0], grp.inv(p1.entries[0]))
    stab = [g for g in p1.sub.normalizer if p1.lam.translated(g) == p1.lam]
    return min(grp.mul(theta0, s) for s in stab)


def chain_disagreements(p: Presentation) -> list[str]:
    """The InvariantChain fields in which compute_KNS(p) differs from
    compute_kns_by_elements(p)."""
    got, want = compute_KNS(p), compute_kns_by_elements(p)
    return [f"chain field {f.name} against the element-wise oracle"
            for f in fields(InvariantChain) if getattr(got, f.name) != getattr(want, f.name)]


def presentation_checks(p: Presentation, rng: random.Random) -> tuple[list[str], bool | None, int]:
    """The checks of the presentation sweep on p: the chains of p and of a
    fresh copy of its normal form equal the element-wise oracle in every
    field, normalize is idempotent, constant on three seeded moves and
    isomorphic to its source, the chain of the normal form is the
    conjugated chain, and on a connected grading classify agrees with the
    element-wise test of strong verbal primeness, which implies the division
    form.

    Returns the names of the failed checks, the verdict of classify's
    conjugation test (alpha^g ~ alpha), or None where classify does not
    reach it (a disconnected grading, H not normal or a multiset that is not
    uniform), and the number of chains compared with the oracle."""
    nf = normalize_with_details(p)
    norm = nf.presentation
    fresh = Presentation(norm.group, norm.sub, norm.alpha, norm.entries)
    compared = (p, fresh)
    failed = [name for q in compared for name in chain_disagreements(q)]
    if normalize(norm) != norm:
        failed.append("normalize is idempotent")
    if not iso_test(p, norm):
        failed.append("iso_test to the normal form")
    if compute_KNS(fresh) != _conjugate_chain(p.group, compute_KNS(p), nf.theta):
        failed.append("chain of the normal form")
    q = p
    for _ in range(3):
        q = apply_move(q, random_move(rng, q))
        if normalize(q) != norm:
            failed.append("normalize after a move")
    if not validate_presentation(p).connected:
        return failed, None, len(compared)
    flags = classify(p)
    if flags.strongly_vp != strongly_vp_by_elements(p):
        failed.append("classify against the element-wise test")
    if flags.strongly_vp and not flags.division_form:
        failed.append("strongly verbally prime without the division form")
    if not p.sub.is_normal or p.lam.uniform_multiplicity() is None:
        return failed, None, len(compared)
    return failed, flags.strongly_vp, len(compared)


def factors_along_by_subgroup(grp: Group, sub: SubgroupData, lam: CosetMultiset,
                              u_elems) -> bool:
    """Is lam exactly (subgroup cosets of U) x (one coset per U-coset hit)?

    Builds a SubgroupData for U and groups lam by its coset ids; the
    reference for CosetMultiset.blocks_along."""
    u_set = set(u_elems)
    if not sub.eset <= u_set:
        return False
    u_sub = SubgroupData(grp, u_set)
    counts = dict(lam.counts)
    by_ucoset: dict[int, list[int]] = {}
    for cid in counts:
        by_ucoset.setdefault(u_sub.coset_id_of[cid], []).append(cid)
    u_reps = sorted({sub.coset_id_of[u] for u in u_set})
    rebuilt: dict[int, int] = {}
    for uc in by_ucoset:
        mults = {counts[c] for c in by_ucoset[uc]}
        if len(mults) != 1:
            return False
        d = mults.pop()
        for u in u_reps:
            c = sub.coset_id_of[grp.mul(u, uc)]
            if c in rebuilt:
                return False
            rebuilt[c] = d
    return rebuilt == counts


def _word_arrays(alpha: Cocycle, L: int):
    """Exponent mod m, product position and letter-multiset code of every
    word of length 1..L over the subgroup (as numpy arrays)."""
    size, m = alpha.sub.order, alpha.modulus
    assert (L + 1) ** size * size < 2 ** 62, "multiset codes would overflow int64"
    tab = np.asarray(alpha.exps, dtype=np.int64)
    pmul = np.asarray(alpha.sub.pmul, dtype=np.int64)
    letter = (L + 1) ** np.arange(size, dtype=np.int64)
    e, prod, mset = np.zeros(size, np.int64), np.arange(size), letter
    out = [(e, prod, mset)]
    for _ in range(L - 1):
        e = ((e[:, None] + tab[prod]) % m).ravel()
        prod = pmul[prod].ravel()
        mset = (mset[:, None] + letter).ravel()
        out.append((e, prod, mset))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def scan_chain(p: Presentation, L: int) -> dict:
    """n, N, S, characters and field read off every word of length <= L.

    Words with equal letter multiset and product form a bucket; the ratio
    of a word is its exponent minus that of the bucket's first word. n is
    the order of the group the ratios generate. g normalizing H lies in N
    when conjugating every word by g preserves which words of a bucket have
    equal exponents; its character is the unique unit j mod n with
    j * (ratio) = (ratio of the conjugated word) throughout. Raises
    AssertionError when L is too short to pin a character.
    """
    alpha, sub = p.alpha, p.sub
    m = alpha.modulus
    e, prod, mset = _word_arrays(alpha, L)
    _, first, bucket = np.unique(mset * sub.order + prod, return_index=True,
                                 return_inverse=True)
    r = (e - e[first][bucket]) % m
    n = m // gcd(m, int(np.gcd.reduce(r)))

    def classes(*cols):
        key = bucket
        for c in cols:
            key = key * m + c
        return len(np.unique(key))

    lam = p.lam
    n_part, chars = [], []
    for g in sub.normalizer:
        ec = _word_arrays(conjugate_cocycle(alpha, g), L)[0]
        rc = (ec - ec[first][bucket]) % m
        if not classes(r) == classes(r, rc) == classes(rc):
            continue
        n_part.append(g)
        if lam.translated(g) == lam:
            js = [j for j in range(1, n + 1)
                  if gcd(j, n) == 1 and not np.any((j * r - rc) % m)]
            assert len(js) == 1, "word bound too short to pin a character"
            chars.append((g, js[0] % n))
    chars.sort()
    sbar = tuple(sorted({j for _, j in chars}))
    return {"n": n, "N": tuple(n_part), "S": tuple(s for s, _ in chars),
            "s_characters": tuple(chars),
            "field": SubfieldDescriptor.from_generators(n, sbar)}


def solve_mod_by_kernel(a_rows, b, M: int) -> tuple[int, ...] | None:
    """One solution of A x = b over Z/M, or None: generators of the kernel
    of [A | -b], combined by xgcd until their last entries reach gcd 1."""
    a_rows = [list(r) for r in a_rows]
    b = list(b)
    if not a_rows:
        return ()
    n = len(a_rows[0])
    gens = kernel_mod([row + [(-bi) % M] for row, bi in zip(a_rows, b)], n + 1, M)
    t_acc, x_acc = M, [0] * n
    for vec in gens:
        g, u, v = xgcd(t_acc, vec[n])
        x_acc = [(u * xa + v * xv) % M for xa, xv in zip(x_acc, vec[:n])]
        t_acc = g
    if t_acc != 1:
        return None
    for row, bi in zip(a_rows, b):
        if sum(c * x for c, x in zip(row, x_acc)) % M != bi % M:
            raise InternalError("solver produced a non-solution")
    return tuple(x_acc)


def reduce_per_call(z, ech, M: int, least: bool):
    """modlinalg._reduce as it was before the pivot data was kept on the
    Echelon: the gcd, index and inverse of each pivot found on every call."""
    if not isinstance(ech, Echelon):
        ech = Echelon(ech)
    z = [int(x) % M for x in z]
    coeffs = []
    for lead, g in zip(ech.leads, ech):
        v = g[lead]
        gg = gcd(v, M)
        rest = z[lead] % gg
        if rest and not least:
            return None
        mi = M // gg
        ai = ((z[lead] - rest) // gg) * pow(v // gg, -1, mi) % mi
        if ai:
            z[lead:] = [(zz - ai * gi) % M for zz, gi in zip(z[lead:], g[lead:])]
        coeffs.append(ai)
    return coeffs, z


def _flat(alpha: Cocycle, M: int | None = None) -> list[int]:
    """alpha read over Z/M (M a multiple of its modulus, the modulus by
    default) as one flat vector, row-major in subgroup positions."""
    k = 1 if M is None else M // alpha.modulus
    return [k * e for row in alpha.exps for e in row]


def coboundary_rows_full(sub: SubgroupData, M: int) -> list[list[int]]:
    """twisted.coboundary_rows on every row: row (i, j), for every position
    i and then j in order, sends f (f[identity] = 0 dropped, one column per
    other element) to f(h_i) + f(h_j) - f(h_i h_j) over Z/M."""
    nvars = sub.order - 1
    rows = []
    for i in range(sub.order):
        for j, ij in enumerate(sub.pmul[i]):
            row = [0] * nvars
            for p, sign in ((i, 1), (j, 1), (ij, -1)):
                if p:
                    row[p - 1] = (row[p - 1] + sign) % M
            rows.append(row)
    return rows


def is_cohomologous_by_solve(a: Cocycle, b: Cocycle):
    """is_cohomologous with the coboundary system rebuilt and solved afresh
    on every call; (ok, witness f with f[identity] = 0, M)."""
    if a.sub is not b.sub and a.sub.elements != b.sub.elements:
        raise PreconditionError("cocycles live on different subgroups")
    sub = a.sub
    M = lcm(a.modulus, b.modulus) * sub.exponent()
    ae, be = a.embedded(M), b.embedded(M)
    if sub.order == 1:
        return (ae.exps == be.exps), (0,), M
    rhs = [(eb - ea) % M for ea, eb in zip(_flat(ae), _flat(be))]
    sol = solve_mod_by_kernel(coboundary_rows_full(sub, M), rhs, M)
    if sol is None:
        return False, None, M
    f = (0,) + tuple(sol)
    if shift_by_coboundary(ae, f).exps != be.exps:
        raise InternalError("coboundary witness failed verification")
    return True, f, M


def class_order_by_solve(alpha: Cocycle) -> int:
    """The least d dividing the modulus with d * alpha ~ 0, each d tested by
    is_cohomologous_by_solve."""
    m = alpha.modulus
    zero = trivial_cocycle(alpha.sub, m)
    return next(d for d in range(1, m + 1) if m % d == 0 and is_cohomologous_by_solve(
        make_cocycle(alpha.sub, m, [[d * e for e in row] for row in alpha.exps]), zero)[0])


def galois_character_by_solve(g: int, alpha: Cocycle, n: int) -> int | None:
    """The unit j mod n with alpha^g ~ j * alpha from one solve of
    delta f + j * alpha = alpha^g in the unknowns (f, j) over Z/M."""
    if n == 1:
        return 0
    sub = alpha.sub
    M = alpha.modulus * sub.exponent()
    ae = alpha.embedded(M)
    be = conjugate_cocycle(alpha, g).embedded(M)
    rows = [row + [e] for row, e in zip(coboundary_rows_full(sub, M), _flat(ae))]
    sol = solve_mod_by_kernel(rows, _flat(be), M)
    if sol is None:
        return None
    f, j = (0,) + sol[:-1], sol[-1]
    scaled = make_cocycle(sub, M, [[j * e for e in row] for row in ae.exps])
    if shift_by_coboundary(scaled, f).exps != be.exps:
        raise InternalError("Galois character witness failed verification")
    if gcd(j, n) != 1:
        raise InternalError("Galois character is not a unit mod the class order")
    return j % n


def _gens_first(sub: SubgroupData, flat) -> list:
    """The |H| blocks of flat, one per row i of a table, those of the rows
    in sub.gens first and then the others in order: so the system on the
    whole table starts with the rows that twisted.coboundary_rows keeps,
    and its witnesses are those of the rows of S."""
    size, gens = sub.order, sub.gens
    rows = list(gens) + [i for i in range(size) if i not in gens]
    return [x for i in rows for x in flat[i * size:(i + 1) * size]]


def coboundary_witness_full(sub: SubgroupData, M: int, z) -> tuple[int, ...] | None:
    """twisted._coboundary_witness on the whole table: f with f[identity] = 0
    and delta f = z over Z/M for z a flat |H|^2 table (row-major), or None,
    by one reduction against the image echelon of the coboundary map on
    every row (i, j), the rows of sub.gens first (_gens_first), rebuilt on
    each call; each witness is checked on the whole table."""
    image = split_echelon(_gens_first(sub, coboundary_rows_full(sub, M)), sub.order - 1, M)[0]
    x = solve_in_image(image, _gens_first(sub, z), sub.order - 1, M)
    if x is None:
        return None
    f = (0,) + x
    if any((d - zz) % M for d, zz in zip(_delta(sub, f), z)):
        raise InternalError("coboundary witness failed verification")
    return f


def is_cohomologous_full(a: Cocycle, b: Cocycle):
    """is_cohomologous by reducing the whole table of b - a
    (coboundary_witness_full); (ok, witness f with f[identity] = 0, M)."""
    M = lcm(a.modulus, b.modulus) * a.sub.exponent()
    f = coboundary_witness_full(a.sub, M, [y - x for x, y in zip(_flat(a, M), _flat(b, M))])
    return f is not None, f, M


def class_order_full(alpha: Cocycle) -> int:
    """class_order with each d tried on the whole table of d * alpha."""
    m = alpha.modulus
    if alpha.is_trivial():
        return 1
    M = m * alpha.sub.exponent()
    z = _flat(alpha, M)
    return next((d for d in range(1, m) if m % d == 0 and coboundary_witness_full(
        alpha.sub, M, [d * e for e in z]) is not None), m)


def galois_character_full(g: int, alpha: Cocycle, n: int) -> int | None:
    """galois_character with each j tried on the whole table of
    alpha^g - j * alpha, alpha^g built as a Cocycle."""
    if n == 1:
        return 0
    M = alpha.modulus * alpha.sub.exponent()
    flat_a, flat_b = _flat(alpha, M), _flat(conjugate_cocycle(alpha, g), M)
    for j in range(n):
        z = [y - j * x for x, y in zip(flat_a, flat_b)]
        if coboundary_witness_full(alpha.sub, M, z) is not None:
            if gcd(j, n) != 1:
                raise InternalError("Galois character is not a unit mod the class order")
            return j
    return None


def descent_witness_full(grp, alpha: Cocycle, gc: int, u: int, n_root: int,
                         big_m: int, enforce: bool):
    """twisted._descent_witness on the whole table: f with f[e] = 0 and
    delta f = u * alpha - alpha(gc . gc^-1, gc . gc^-1) over Z/big_m from one
    fresh solve_mod of the |H|^2 coboundary rows, the rows of sub.gens first
    (_gens_first), alpha^(gc^-1) built as a Cocycle; with enforce=True the
    descent rows are added. None if there is no such f."""
    beta = conjugate_cocycle(alpha, grp.inv(gc))
    sub = alpha.sub
    elems, pos = sub.elements, sub.pos
    nv = len(elems) - 1
    rows = _gens_first(sub, coboundary_rows_full(sub, big_m))
    rhs = _gens_first(sub, [(u * a - b) % big_m
                            for a, b in zip(_flat(alpha, big_m), _flat(beta, big_m))])
    if enforce:
        for x in elems[1:]:
            if n_root > 1:
                row = [0] * nv
                row[pos[x] - 1] = n_root % big_m
                rows.append(row)
                rhs.append(0)
            row = [0] * nv
            row[pos[x] - 1] = u % big_m
            xc = grp.conj(x, grp.inv(gc))
            if pos[xc]:
                row[pos[xc] - 1] = (row[pos[xc] - 1] + 1) % big_m
            rows.append(row)
            rhs.append(0)
    sol = solve_mod(rows, rhs, big_m)
    if sol is None:
        return None
    return (0,) + tuple(int(v) % big_m for v in sol)


def slot_witnesses_full(grp, alpha: Cocycle, g_slots, chars, n_root: int, mode: str):
    """twisted._slot_witnesses by the search it replaced: per slot, the
    descent rows first on an involutive slot, then u_n in {j^-1, j} and
    every unit lift u of u_n, one descent_witness_full per try."""
    m_alpha = alpha.modulus
    big_m = m_alpha * alpha.sub.exponent()
    slot_units: list[int] = []
    slot_scalars: list = []
    descent_enforced = True
    for gc in g_slots:
        jc = chars[gc]
        j_inv = pow(jc, -1, n_root) if n_root > 1 else 1
        if mode != "corrected" or gc == 0:
            slot_units.append(j_inv % n_root if n_root > 1 else 0)
            slot_scalars.append(None)
            if mode != "corrected" and len(g_slots) > 1:
                descent_enforced = False
            continue
        involutive = (jc * jc) % n_root == 1 % n_root and grp.mul(gc, gc) == 0
        found = None
        for enforce in ((True, False) if involutive else (False,)):
            for u_n in dict.fromkeys((j_inv, jc)):
                for u in unit_lifts(u_n, n_root, m_alpha):
                    f = descent_witness_full(grp, alpha, gc, u, n_root, big_m, enforce)
                    if f is not None:
                        found = (u_n % n_root, f, enforce)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            raise PresentationError(
                f"no coboundary witness for the slot of {gc}; corrected generators unavailable")
        slot_units.append(found[0])
        slot_scalars.append((found[1], big_m))
        descent_enforced = descent_enforced and found[2]
    return tuple(slot_units), slot_scalars, descent_enforced


def _ident(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def snf(mat) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Integer Smith normal form with left transforms.

    Returns (diag, U, Uinv) where U @ mat @ V is diagonal `diag` with the
    divisibility chain, for some unimodular V, and U @ Uinv = I. Verified
    internally by tracking V.
    """
    A = [[int(x) for x in row] for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    orig = [row[:] for row in A]
    U, Uinv, V = _ident(r), _ident(r), _ident(c)

    def row_add(dst, src, k):
        # A' = E A with E = I + k * e_(dst,src); Uinv gets E^-1 on the right
        A[dst] = [x + k * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + k * y for x, y in zip(U[dst], U[src])]
        for t in range(r):
            Uinv[t][src] -= k * Uinv[t][dst]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for t in range(r):
            Uinv[t][i], Uinv[t][j] = Uinv[t][j], Uinv[t][i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for t in range(r):
            Uinv[t][i] = -Uinv[t][i]

    def col_add(dst, src, k):
        for t in range(r):
            A[t][dst] += k * A[t][src]
        for t in range(c):
            V[t][dst] += k * V[t][src]

    def col_swap(i, j):
        for t in range(r):
            A[t][i], A[t][j] = A[t][j], A[t][i]
        for t in range(c):
            V[t][i], V[t][j] = V[t][j], V[t][i]

    for t in range(min(r, c)):
        while True:
            best = None
            for i in range(t, r):
                for j in range(t, c):
                    if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            if A[t][t] < 0:
                row_neg(t)
            dirty = False
            for i in range(t + 1, r):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j]:
                        dirty = True
            if dirty:
                continue
            off = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if A[i][j] % A[t][t]:
                        off = i
                        break
                if off is not None:
                    break
            if off is None:
                break
            row_add(t, off, 1)

    diag = [A[t][t] for t in range(min(r, c))]
    for i in range(r):
        for j in range(c):
            if i != j and A[i][j]:
                raise InternalError("smith reduction left an off-diagonal entry")
    # U @ orig @ V == A
    prod = [[sum(U[i][k] * orig[k][j] for k in range(r)) for j in range(c)] for i in range(r)]
    prod = [[sum(prod[i][k] * V[k][j] for k in range(c)) for j in range(c)] for i in range(r)]
    for i in range(r):
        for j in range(c):
            if prod[i][j] != (A[i][j] if i == j and i < min(r, c) else 0):
                raise InternalError("smith transform verification failed")
    ident = [[sum(U[i][k] * Uinv[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    if ident != _ident(r):
        raise InternalError("left transform inverse verification failed")
    return diag, U, Uinv


def _raw_classes(sub: SubgroupData, m: int) -> tuple[dict, tuple[int, ...]]:
    """Normalized cocycle tables over Z/m from the full |H|^3-row cocycle
    system, one per class modulo mod-m coboundaries, each mapped to its
    coordinates y in the product of the Z/d over the returned orders d;
    y -> class is a group isomorphism."""
    size = sub.order
    nvars = size * size

    def v(i, j):
        return i * size + j

    pmul = sub.pmul
    rows = []
    for i in range(size):
        for j in range(size):
            for k in range(size):
                row = [0] * nvars
                for col, sign in ((v(i, j), 1), (v(pmul[i][j], k), 1),
                                  (v(j, k), -1), (v(i, pmul[j][k]), -1)):
                    row[col] = (row[col] + sign) % m
                rows.append(row)
    rows += [[int(c == col) for c in range(nvars)]
             for t in range(size) for col in (v(0, t), v(t, 0))]
    gens = kernel_mod_numpy(rows, nvars, m)
    if not gens:
        return {trivial_cocycle(sub, m).exps: ()}, ()
    r = len(gens)
    cob = coboundary_rows_full(sub, m)
    cob_cols = [reduce_mod([row[t] for row in cob], gens, m) for t in range(size - 1)]
    if any(red is None or any(red[1]) for red in cob_cols):
        raise InternalError("coboundary is not in the cocycle module")
    # the relation of generator i: (m / gcd(lead, m)) * gens_i is a
    # combination of the generators after it, not always 0
    relations = []
    for i, g in enumerate(gens):
        order = m // gcd(next(vv for vv in g if vv), m)
        red = reduce_mod([order * vv for vv in g], gens, m)
        if red is None or any(red[1]):
            raise InternalError("cocycle generators are not a Howell echelon")
        relations.append([(order if t == i else 0) - c for t, c in enumerate(red[0])])
    mat = [[cob_cols[t][0][i] for t in range(size - 1)] + [rel[i] for rel in relations]
           for i in range(r)]
    diag, _, uinv = snf(mat)
    if any(d <= 0 for d in diag[:r]):
        raise InternalError("quotient lattice is not full rank")
    diag = tuple(diag[:r])
    raw = {}
    for y in iproduct(*(range(d) for d in diag)):
        x = [sum(uinv[i][k] * y[k] for k in range(r)) for i in range(r)]
        flat = [0] * nvars
        for xi, g in zip(x, gens):
            if xi % m:
                flat = [(zz + xi * gi) % m for zz, gi in zip(flat, g)]
        raw[tuple(tuple(flat[v(i, j)] for j in range(size)) for i in range(size))] = y
    return raw, diag


def h2_classes_full_system(sub: SubgroupData, m: int) -> list[Cocycle]:
    """h2_classes from the raw classes of the full cocycle system, merged by
    the subgroup K0 of raw classes that are coboundaries over Z/M (one
    reduction per raw class); each class is the lex-least raw table of its
    K0 coset, so its table depends on the kernel's generators."""
    if m == 1:
        return [trivial_cocycle(sub, 1)]
    raw, diag = _raw_classes(sub, m)
    cocycles = {table: Cocycle(sub, m, table) for table in sorted(raw)}
    M = m * sub.exponent()
    k0 = [raw[t] for t, c in cocycles.items()
          if coboundary_witness_full(sub, M, _flat(c, M)) is not None]
    reps: list[Cocycle] = []
    merged: set[tuple[int, ...]] = set()
    for table, cand in cocycles.items():
        y = raw[table]
        if y in merged:
            continue
        reps.append(cand)
        merged.update(tuple((a + b) % d for a, b, d in zip(y, k, diag)) for k in k0)
    return reps


def h2_classes_pairwise(sub: SubgroupData, m: int) -> list[Cocycle]:
    """h2_classes by merging each raw class into every representative kept
    so far, one fresh cohomology solve per pair; each class is then mapped
    to its lex-least member with values in the m-th roots of unity, by
    reduction against a Howell basis of the mod-m coboundaries and the raw
    tables that are coboundaries over Z/M."""
    if m == 1:
        return [trivial_cocycle(sub, 1)]
    raw, _ = _raw_classes(sub, m)
    reps: list[Cocycle] = []
    k0 = []  # the raw tables merged into the first, trivial, representative
    for table in sorted(raw):
        cand = Cocycle(sub, m, table)
        match = next((i for i, rep in enumerate(reps)
                      if is_cohomologous_by_solve(cand, rep)[0]), None)
        if match is None:
            reps.append(cand)
        elif match == 0:
            k0.append(_flat(cand))
    mod_m = [[row[p] for row in coboundary_rows_full(sub, m)] for p in range(sub.order - 1)]
    ell = howell_echelon_numpy(mod_m + k0, m)
    size = sub.order
    least = [reduce_least(_flat(rep), ell, m) for rep in reps]
    return sorted((Cocycle(sub, m, tuple(tuple(f[i * size:(i + 1) * size])
                                         for i in range(size))) for f in least),
                  key=lambda c: c.exps)


def root_coboundaries_by_kernel(sub: SubgroupData, m: int) -> Echelon:
    """twisted._root_coboundaries as a kernel over Z/M, M = m * exp(H): the
    f with m * delta f = 0 over Z/M (so f mod M/m is a homomorphism, and
    f(sh) = f(s) + f(h) for s in sub.gens, the rows of coboundary_rows, is
    enough for that), each giving the row delta f / (M/m) over Z/m."""
    M = m * sub.exponent()
    hom_rows = [[m * c for c in row] for row in coboundary_rows(sub, M)]
    ell = []
    for f in kernel_mod(hom_rows, sub.order - 1, M):
        delta = [d % M for d in _delta(sub, (0, *f))]
        if any(d % (M // m) for d in delta):
            raise InternalError("coboundary is not in the cocycle module")
        ell.append([d // (M // m) for d in delta])
    return howell_echelon(ell, m)


def cocycle_system_by_edges(sub: SubgroupData, m: int):
    """twisted._cocycle_system with one row block per non-tree edge: every
    alpha(g, .) is expanded along the BFS tree of the Cayley graph of (H, S)
    by alpha(sg, h) = alpha(g, h) + alpha(s, gh) - alpha(s, g), and each
    edge (s, g) outside the tree gives the |H| - 1 rows of that identity at
    h != e; zero rows are dropped, and of equal rows the first is kept.
    The same S, tree (that of twisted._cayley, in the same BFS order) and
    unknowns as the relator system, so its kernel is Z^2 too. Returns the
    rows."""
    size, pmul, gens = sub.order, sub.pmul, sub.gens
    nvars = len(gens) * (size - 1)
    forms = {0: [[0] * nvars for _ in range(size)]}
    rows, order = {}, [0]
    for g in order:  # grows as the BFS reaches new elements
        fg, pg = forms[g], pmul[g]
        for i, s in enumerate(gens):
            sg, base = pmul[s][g], i * (size - 1) - 1
            known = forms.get(sg)
            step = []
            # alpha(g, h) + alpha(s, gh) - alpha(s, g), less alpha(sg, h) if known
            for h in range(size) if known is None else range(1, size):
                form = fg[h][:] if known is None else [
                    (a - b) % m for a, b in zip(fg[h], known[h])]
                for x, sign in ((pg[h], 1), (g, -1)):
                    if x:
                        form[base + x] = (form[base + x] + sign) % m
                step.append(form)
            if known is None:
                forms[sg] = step
                order.append(sg)
            else:
                rows.update(dict.fromkeys(map(tuple, step)))
    return [list(row) for row in rows if any(row)]


def h2_classes_by_snf(sub: SubgroupData, m: int) -> list[Cocycle]:
    """h2_classes with Z^2 / L read off an integer Smith normal form of the
    relations of the cocycle generators and the coordinates of L, each
    quotient element enumerated through the inverse left transform, on the
    per-edge system of cocycle_system_by_edges."""
    if sub.order > CAPS.h2_subgroup:
        raise CapExceeded(
            f"cohomology enumeration capped at subgroup order {CAPS.h2_subgroup}")
    _check_modulus(m)
    if m == 1:
        return [trivial_cocycle(sub, 1)]
    size, gens = sub.order, sub.gens
    z2 = Echelon(kernel_mod(cocycle_system_by_edges(sub, m), len(gens) * (size - 1), m))
    if not z2:
        return [trivial_cocycle(sub, m)]
    ell = root_coboundaries_by_kernel(sub, m)

    def combined(coeffs):
        return [sum(c * g[col] for c, g in zip(coeffs, z2)) % m for col in range(len(z2[0]))]

    # each row of L as a combination of the cocycle generators, which must
    # expand back to the row: L lies in Z^2
    l_coords = []
    for row in ell:
        red = reduce_mod([row[s * size + x] for s in gens for x in range(1, size)], z2, m)
        if red is None or _expand(sub, combined(red[0]), m) != list(row):
            raise InternalError("coboundary is not in the cocycle module")
        l_coords.append(red[0])
    # the relations of the generators: (m / gcd(lead, m)) * z2_i reduces
    # against the generators after it, as z2 is a Howell echelon
    r = len(z2)
    relations = []
    for i, g in enumerate(z2):
        order = m // gcd(next(v for v in g if v), m)
        red = reduce_mod([order * v for v in g], z2, m)
        if red is None or any(red[1]):
            raise InternalError("cocycle generators are not a Howell echelon")
        relations.append([(order if t == i else 0) - c for t, c in enumerate(red[0])])
    cols = relations + l_coords
    diag, _, uinv = snf([[col[i] for col in cols] for i in range(r)])
    if any(d <= 0 for d in diag[:r]):
        raise InternalError("quotient lattice is not full rank")
    total = prod(diag[:r])
    if total > 4096:
        raise CapExceeded(f"{total} classes exceed the enumeration cap")
    free = [t for t in range(r) if diag[t] > 1]
    tables = set()
    for y in iproduct(*(range(diag[t]) for t in free)):
        x = [sum(uinv[i][t] * yt for t, yt in zip(free, y)) for i in range(r)]
        flat = reduce_least(_expand(sub, combined(x), m), ell, m)
        tables.add(tuple(tuple(flat[i * size:(i + 1) * size]) for i in range(size)))
    if len(tables) != total:
        raise InternalError("class representatives are not distinct")
    return [Cocycle(sub, m, table) for table in sorted(tables)]


def h2_outcome(enumerate_classes, sub: SubgroupData, m: int):
    """The (modulus, table) of every class an enumeration returns, or the
    message of its CapExceeded."""
    try:
        return [(c.modulus, c.exps) for c in enumerate_classes(sub, m)]
    except CapExceeded as exc:
        return ("cap", str(exc))


def h2_lex_least_by_search(alpha: Cocycle) -> tuple[tuple[int, ...], ...]:
    """The lex-least table with values in the m-th roots of unity that is
    cohomologous to alpha over Z/M, M = m * exp(H), by search over every f
    on H with f(e) = 0 and m * delta f = 0 over Z/M. Such an f is a lift of
    a homomorphism phi: H -> Z/(M/m) plus (M/m) * g for any g over Z/m; the
    members are alpha + delta(phi)/(M/m) + delta g."""
    sub, m = alpha.sub, alpha.modulus
    size, pmul = sub.order, np.asarray(sub.pmul, dtype=np.int64)
    k = sub.exponent()  # M / m
    left = np.repeat(np.arange(size), size)
    right, prod_ = np.tile(np.arange(size), size), pmul.reshape(-1)

    def delta(f):  # f with one row per function, column 0 the identity
        return f[:, left] + f[:, right] - f[:, prod_]

    def all_functions(n):
        vals = np.asarray(list(iproduct(range(n), repeat=size - 1)), dtype=np.int64)
        return np.hstack([np.zeros((len(vals), 1), dtype=np.int64), vals.reshape(len(vals), size - 1)])

    lifts = all_functions(k)
    homs = lifts[~np.any(delta(lifts) % k, axis=1)]
    base = np.asarray(alpha.exps, dtype=np.int64).reshape(-1)
    shifts = delta(all_functions(m))
    best = None
    for phi in homs:
        tables = (base + delta(phi[None])[0] // k + shifts) % m
        for col in range(size * size):  # keep the rows least in each column
            tables = tables[tables[:, col] == tables[:, col].min()]
        cand = tuple(tables[0].tolist())
        best = cand if best is None else min(best, cand)
    return tuple(best[i * size:(i + 1) * size] for i in range(size))


def cocycle_rows_hold(sub: SubgroupData, m: int, exps, rows) -> bool:
    """Does alpha(i,j) + alpha(ij,k) = alpha(j,k) + alpha(i,jk) hold mod m
    at every row i in `rows`?"""
    tab = np.asarray(exps, dtype=np.int64)
    pmul = np.asarray(sub.pmul, dtype=np.int64)
    return all(np.array_equal((tab[i][:, None] + tab[pmul[i]]) % m,
                              (tab + tab[i][pmul]) % m) for i in rows)


# Reference cyclotomic scalars on Fraction coefficients, the pairwise
# product and the per-key vector product, kept as differential oracles for
# the integer-backed CycScalar and the flat integer multiply in gforge.

def _ref_reduce_poly(m: int, coeffs: list[Fraction]) -> list[Fraction]:
    deg = phi(m)
    rows = _power_rows(m)
    out = [Fraction(0)] * deg
    for t, c in enumerate(coeffs):
        if c:
            row = rows[t % m] if t >= deg else None
            if row is None:
                out[t] += c
            else:
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
    return out


def _ref_trim(p: list) -> list:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _ref_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _ref_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
            for i in range(n)]


def _ref_poly_divmod(a: list[Fraction], b: list[Fraction]):
    a, b = _ref_trim(list(a)), _ref_trim(list(b))
    if len(a) < len(b):
        return [Fraction(0)], a
    quo = [Fraction(0)] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(quo) - 1, -1, -1):
        c = a[k + len(b) - 1] / lead
        quo[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return quo, _ref_trim(a)


def _ref_poly_xgcd(a: list[Fraction], b: list[Fraction]):
    r0, r1 = _ref_trim([Fraction(c) for c in a]), _ref_trim([Fraction(c) for c in b])
    u0, u1 = [Fraction(1)], [Fraction(0)]
    while r1 != [Fraction(0)] and any(r1):
        q = _ref_poly_divmod(r0, r1)[0]
        r0, r1 = r1, _ref_trim(_ref_poly_sub(r0, _ref_poly_mul(q, r1)))
        u0, u1 = u1, _ref_trim(_ref_poly_sub(u0, _ref_poly_mul(q, u1)))
    return r0, u0


@dataclass(frozen=True, eq=False)
class RefScalar:
    """Element of Q(zeta_modulus) on the power basis, Fraction coefficients;
    rational results of _make are demoted to modulus 1."""

    modulus: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def _make(m: int, coeffs) -> "RefScalar":
        coeffs = [Fraction(c) for c in coeffs]
        assert len(coeffs) == phi(m)
        if m > 1 and not any(coeffs[1:]):
            return RefScalar(1, (coeffs[0],))
        return RefScalar(m, tuple(coeffs))

    @staticmethod
    def of(x) -> "RefScalar":
        """The reference scalar with the modulus and coefficients of x."""
        if isinstance(x, RefScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return RefScalar(1, (Fraction(x),))
        return RefScalar(x.modulus, tuple(x.coeffs))

    @staticmethod
    def from_root(m: int, k: int) -> "RefScalar":
        return RefScalar._make(m, _power_rows(m)[k % m])

    def _promoted(self, m: int) -> "RefScalar":
        if m == self.modulus:
            return self
        assert m % self.modulus == 0
        step = m // self.modulus
        acc = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            acc[(i * step) % m] += c
        return RefScalar(m, tuple(_ref_reduce_poly(m, acc)))

    def _pair(self, other):
        other = RefScalar.of(other)
        m = lcm(self.modulus, other.modulus)
        return self._promoted(m), other._promoted(m)

    def __add__(self, other) -> "RefScalar":
        a, b = self._pair(other)
        return RefScalar._make(a.modulus, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self) -> "RefScalar":
        return RefScalar(self.modulus, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "RefScalar":
        a, b = self._pair(other)
        conv = _ref_poly_mul(list(a.coeffs), list(b.coeffs))
        return RefScalar._make(a.modulus, _ref_reduce_poly(a.modulus, conv))

    def inverse(self) -> "RefScalar":
        assert any(self.coeffs)
        if self.modulus == 1:
            return RefScalar(1, (1 / self.coeffs[0],))
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.modulus)]
        g, u = _ref_poly_xgcd(list(self.coeffs), mod)
        assert len(g) == 1
        scale = 1 / g[0]
        return RefScalar._make(self.modulus,
                               _ref_reduce_poly(self.modulus, [c * scale for c in u]))

    def galois(self, j: int) -> "RefScalar":
        m = self.modulus
        if m == 1:
            return self
        assert gcd(j, m) == 1
        acc = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            acc[(i * j) % m] += c
        return RefScalar._make(m, _ref_reduce_poly(m, acc))

    def __repr__(self) -> str:
        if self.modulus == 1:
            return f"Cyc({self.coeffs[0]})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                base = "1" if i == 0 else (f"z{self.modulus}" if i == 1 else f"z{self.modulus}^{i}")
                terms.append(f"{c}*{base}" if i else f"{c}")
        return "Cyc(" + (" + ".join(terms) or "0") + ")"


def dense_element(rng, alg, moduli, share=0.6) -> AlgElement:
    """Random coefficients on a random share of the basis: rationals, roots
    of unity and sums of two roots at the given moduli, times rationals."""
    terms = {}
    for t in alg._deg:
        if rng.random() < share:
            n = rng.choice(moduli)
            c = CycScalar.from_root(n, rng.randrange(n))
            if rng.random() < 0.3:
                c = c + CycScalar.from_root(n, rng.randrange(n))
            terms[t] = c * Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3)))
    return alg.element(terms)


def scalar_slots(x: AlgElement) -> list:
    """(key, (modulus, nums, den)) per term of x, in key order: what two
    products must share to be the same output."""
    return [(k, (c.modulus, c.nums, c.den)) for k, c in x.terms.items()]


def multiply_pairwise(x, y) -> dict:
    """The product of two algebra elements, one full scalar product per
    pair of terms, on reference scalars: key -> RefScalar, zeros dropped."""
    alg = x.algebra
    grp, alpha = alg.group, alg.alpha
    m = alpha.modulus
    acc: dict = {}
    for (a, i, j), ca in x.terms.items():
        for (b, k, l), cb in y.terms.items():
            if j != k:
                continue
            key = (grp.mul(a, b), i, l)
            c = RefScalar.of(ca) * RefScalar.of(cb) * RefScalar.from_root(m, alpha.value(a, b))
            acc[key] = acc[key] + c if key in acc else c
    return {k: v for k, v in acc.items() if any(v.coeffs)}


def multiply_by_rows(x, y) -> AlgElement:
    """algebra.multiply as it was before the flat integer kernel: y's terms
    grouped by row, and with one working modulus L a vector in
    Z[x]/(x^L - 1) per output key, made into a CycScalar by from_powers;
    with mixed moduli, one scalar product per pair."""
    _same_algebra(x, y)
    alg = x.algebra
    pos, m = alg.sub.pos, alg.alpha.modulus
    elements = alg.sub.elements
    table = tuple(tuple(zip((elements[p] for p in prow), erow))
                  for prow, erow in zip(alg.sub.pmul, alg.alpha.exps))
    by_row: dict = {}
    moduli = {alg._root_modulus}
    for (b, k, l), cb in y.terms.items():
        by_row.setdefault(k, []).append((pos[b], l, cb))
        moduli.add(cb.modulus)
    xs = [(pos[a], i, j, ca) for (a, i, j), ca in x.terms.items() if j in by_row]
    if not xs:
        return AlgElement(alg, {})
    moduli.update(ca.modulus for _, _, _, ca in xs)
    moduli.discard(1)
    if len(moduli) > 1:
        roots = [CycScalar.from_root(m, e) for e in range(m)]
        acc: dict = {}
        for pa, i, j, ca in xs:
            row = table[pa]
            for pb, l, cb in by_row[j]:
                ab, e = row[pb]
                key = (ab, i, l)
                c = ca * cb * roots[e]
                acc[key] = acc[key] + c if key in acc else c
        return AlgElement(alg, acc)

    L = moduli.pop() if moduli else 1
    rot = _root_shifts(m, L)
    dx = lcm(*(ca.den for _, _, _, ca in xs))
    dy = lcm(*(c.den for c in y.terms.values()))
    lifted = {k: [(pb, l, [(t, v * (dy // cb.den)) for t, v in enumerate(cb.nums) if v])
                  for pb, l, cb in terms]
              for k, terms in by_row.items()}
    vecs: dict = {}
    for pa, i, j, ca in xs:
        row = table[pa]
        f = dx // ca.den
        va = [(t, v * f) for t, v in enumerate(ca.nums) if v]
        for pb, l, vb in lifted[j]:
            ab, e = row[pb]
            s, sign = rot[e]
            key = (ab, i, l)
            vec = vecs.get(key)
            if vec is None:
                vec = vecs[key] = [0] * L
            for t1, v1 in va:
                v1 *= sign
                for t2, v2 in vb:
                    vec[(t1 + t2 + s) % L] += v1 * v2
    den = dx * dy
    return AlgElement(alg, {key: CycScalar.from_powers(L, vec, den)
                            for key, vec in vecs.items()})


def operator_all_slots(algebra, g: AlgElement, L: int) -> list:
    """algebra._operator as it was before its source slots were compiled on
    first use: the target list of every source slot, built at once, () for
    a slot whose column no term of g has."""
    pos, n = algebra.sub.pos, algebra.size
    table = algebra.product_table(L)
    den = lcm(*(c.den for c in g.terms.values()))
    by_col: dict = {}
    for (a, i, j), c in g.terms.items():
        by_col.setdefault(j, []).append((table[pos[a]], i * n * L, _monomials(c, L, den)))
    op: list = [()] * algebra.dim
    for pb in range(algebra.sub.order):
        for j, terms in by_col.items():
            for l in range(n):
                out = []
                for row, at_i, poly in terms:
                    base, s, sign = row[pb]
                    base += at_i + l * L
                    out += [(base, (t + s) % L, v * sign) for t, v in poly]
                op[(pb * n + j) * n + l] = out
    return op


def _k_basis(field: SubfieldDescriptor) -> list[CycScalar]:
    """The nonzero Galois traces sum_u zeta_n^(a u) over a < n, a spanning
    set of the subfield k, as _span_report seeded its closure with them
    before it kept only a Q-basis of them (algebra._k_seeds)."""
    k_basis = []
    for a in range(field.n):
        acc = CycScalar.zero()
        for u in field.units:
            acc = acc + CycScalar.from_root(field.n, (a * u) % field.n)
        if not acc.is_zero():
            k_basis.append(acc)
    return k_basis


def _bareiss_insert(ech: dict, vec: dict[int, int]) -> bool:
    """Reduce vec against ech (vec := a * vec - b * row, over the content
    of the result); a nonzero remainder becomes a primitive pivot row."""
    while vec:
        piv = min(vec)
        prow = ech.get(piv)
        if prow is None:
            g = gcd(*vec.values())
            ech[piv] = {i: v // g for i, v in vec.items()}
            return True
        a, b = prow[piv], vec[piv]
        vec = {i: a * vec.get(i, 0) - b * prow.get(i, 0) for i in vec.keys() | prow.keys()}
        g = gcd(*vec.values())
        vec = {i: v // g for i, v in vec.items() if v}
    return False


def span_report_pairwise(algebra, field: SubfieldDescriptor, gens: tuple,
                         mode: str, slot_units: tuple,
                         descent_enforced: bool) -> KFormReport:
    """algebra._span_report as it was before the integer echelon: the k-span
    is closed by both-sided products of every new basis element with every
    earlier one, in an echelon of Fraction vectors, and the F-span is read
    off a second echelon over the cyclotomic scalars themselves."""
    slot = {key: idx for idx, key in enumerate(sorted(
        (h, i, j) for h in algebra.sub.elements
        for i in range(algebra.size) for j in range(algebra.size)))}
    big = field.n
    for g in gens:
        for c in g.terms.values():
            big = lcm(big, c.modulus)
    width = phi(big)

    def qvec(x: AlgElement) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for key, c in x.terms.items():
            base = slot[key] * width
            for t, q in enumerate(c._promoted(big).coeffs):
                if q:
                    out[base + t] = q
        return out

    def reduce_q(vec: dict[int, Fraction], ech: dict) -> dict[int, Fraction]:
        while vec:
            piv = min(vec)
            if piv not in ech:
                return vec
            coef = vec[piv]
            for idx, val in ech[piv].items():
                nv = vec.get(idx, Fraction(0)) - coef * val
                if nv:
                    vec[idx] = nv
                else:
                    vec.pop(idx, None)
        return vec

    ech: dict[int, dict[int, Fraction]] = {}
    basis_elems: list[AlgElement] = []
    queue = [g.scaled(kb) for kb in _k_basis(field) for g in gens]
    while queue:
        x = queue.pop()
        if x.is_zero():
            continue
        vec = reduce_q(qvec(x), ech)
        if not vec:
            continue
        piv = min(vec)
        inv = Fraction(1) / vec[piv]
        ech[piv] = {i: v * inv for i, v in vec.items()}
        basis_elems.append(x)
        for b in basis_elems:
            queue.append(multiply(b, x))
            if b is not x:
                queue.append(multiply(x, b))

    rank = len(basis_elems)
    k_deg = field.degree_over_q()
    if rank % k_deg:
        raise InternalError("closure is not a module over the subfield")
    k_dim = rank // k_deg

    cech: dict[int, dict] = {}
    f_rank = 0
    for x in basis_elems:
        vec = {slot[key]: c for key, c in x.terms.items()}
        while vec:
            piv = min(vec)
            if piv not in cech:
                inv = vec[piv].inverse()
                cech[piv] = {i: v * inv for i, v in vec.items()}
                f_rank += 1
                break
            coef = vec[piv]
            for idx, val in cech[piv].items():
                nv = vec.get(idx, CycScalar.zero()) - coef * val
                if nv.is_zero():
                    vec.pop(idx, None)
                else:
                    vec[idx] = nv

    expected = algebra.dim
    f_full = f_rank == expected
    return KFormReport(mode, k_dim, expected, f_full, tuple(slot_units),
                       descent_enforced, k_dim == expected and f_full)


def span_report_by_multiply(algebra, field: SubfieldDescriptor, gens: tuple,
                             mode: str, slot_units: tuple,
                             descent_enforced: bool) -> KFormReport:
    """algebra._span_report as it was before the closure ran on integer
    vectors: each new basis element x queues multiply(g, x) for g in gens,
    and every element enters the fraction-free integer echelon through its
    CycScalar coefficients promoted to modulus big (Bareiss 1968)."""
    slot = {key: idx for idx, key in enumerate(sorted(
        (h, i, j) for h in algebra.sub.elements
        for i in range(algebra.size) for j in range(algebra.size)))}
    big = field.n
    for g in gens:
        for c in g.terms.values():
            big = lcm(big, c.modulus)
    width = phi(big)

    def row(x: AlgElement) -> dict[int, int]:
        cs = [(slot[key] * width, c._promoted(big)) for key, c in x.terms.items()]
        den = lcm(*(c.den for _, c in cs))
        return {base + t: v * (den // c.den)
                for base, c in cs for t, v in enumerate(c.nums) if v}

    ech: dict[int, dict[int, int]] = {}
    basis: list[AlgElement] = []
    queue = [g.scaled(kb) for kb in _k_basis(field) for g in gens]
    while queue:
        x = queue.pop()
        if x.terms and _bareiss_insert(ech, row(x)):
            basis.append(x)
            queue.extend(multiply(g, x) for g in gens)

    k_deg = field.degree_over_q()
    if len(basis) % k_deg:
        raise InternalError("closure is not a module over the subfield")
    k_dim = len(basis) // k_deg

    for x in basis:
        for t in range(1, width):
            _bareiss_insert(ech, row(x.scaled(CycScalar.from_root(big, t))))

    expected = algebra.dim
    f_full = len(ech) == expected * width
    return KFormReport(mode, k_dim, expected, f_full, tuple(slot_units),
                       descent_enforced, k_dim == expected and f_full)


def span_report_full_closure(algebra, field: SubfieldDescriptor, gens: tuple,
                             mode: str, slot_units: tuple,
                             descent_enforced: bool) -> KFormReport:
    """algebra._span_report as it was before the closure went breadth first:
    each new basis element x queues g * x for every g in gens at once, the
    queue is worked last in first out, and the closure never stops early;
    the integer vectors at big, operators and echelon are those of
    _span_report."""
    big = field.n
    for g in gens:
        for c in g.terms.values():
            big = lcm(big, c.modulus)
    width = phi(big)
    powers = [[(i, r) for i, r in enumerate(p) if r] for p in _power_rows(big)]

    def row(x: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for k, v in x.items():
            s, e = divmod(k, big)
            base = s * width
            for i, r in powers[e]:
                out[base + i] = out.get(base + i, 0) + r * v
        return {i: v for i, v in out.items() if v}

    ech: dict[int, dict[int, int]] = {}
    ops = [_operator(algebra, g, big) for g in gens]
    basis: list[dict[int, int]] = []
    queue = [_lift(g.scaled(kb), big) for kb in _k_basis(field) for g in gens]
    while queue:
        x = queue.pop()
        if x and _bareiss_insert(ech, row(x)):
            basis.append(x)
            queue.extend(_apply(op, x, big) for op in ops)

    k_deg = field.degree_over_q()
    if len(basis) % k_deg:
        raise InternalError("closure is not a module over the subfield")
    k_dim = len(basis) // k_deg

    for x in basis:
        for t in range(1, width):
            _bareiss_insert(ech, row({k - k % big + (k % big + t) % big: v for k, v in x.items()}))

    expected = algebra.dim
    f_full = len(ech) == expected * width
    return KFormReport(mode, k_dim, expected, f_full, tuple(slot_units),
                       descent_enforced, k_dim == expected and f_full)


class _SpanArgs(Exception):
    """Carries the arguments of build_k_form's span check out of it."""


def span_args(p: Presentation, mode: str):
    """The arguments build_k_form(p, mode) passes to algebra._span_report,
    or the error type when it fails before the span check."""
    real = algebra_mod._span_report

    def capture(*args):
        raise _SpanArgs(args)

    algebra_mod._span_report = capture
    try:
        algebra_mod.build_k_form(p, mode)
    except _SpanArgs as e:
        return e.args[0]
    except GForgeError as e:
        return type(e)
    finally:
        algebra_mod._span_report = real
    raise AssertionError("build_k_form returned without its span check")


def span_outcome(report_fn, args):
    """(k_dim, f_span_full, ok) of report_fn(*args), or the error type."""
    try:
        rep = report_fn(*args)
    except GForgeError as e:
        return type(e)
    return rep.k_dim, rep.f_span_full, rep.ok


def span_outcomes(p: Presentation, oracles) -> list:
    """(mode, which, outcome of _span_report, outcomes of the oracles) in
    every mode in which build_k_form reaches its span check, on its
    generators and on every other generator (spans that do not close at
    dim_F A or do not span A over F)."""
    out = []
    for mode in algebra_mod.MODES:
        args = span_args(p, mode)
        if isinstance(args, type):
            continue
        algebra, field, gens, *rest = args
        halved = (algebra, field, gens[::2], *rest)
        for which, sub_args in (("all generators", args), ("every other generator", halved)):
            out.append((mode, which, span_outcome(algebra_mod._span_report, sub_args),
                        tuple(span_outcome(o, sub_args) for o in oracles)))
    return out


def gathered_pmul(sub: SubgroupData) -> np.ndarray:
    """pos[h_i * h_j] gathered through the group's numpy table, as each
    Cocycle once built it for itself; the reference for SubgroupData.pmul."""
    els = np.asarray(sub.elements, dtype=np.int64)
    pos_of = np.zeros(sub.group.order, dtype=np.int64)
    pos_of[els] = np.arange(sub.order)
    return pos_of[np.asarray(sub.group._mul, dtype=np.int64)[els[:, None], els]]


# The numpy integer kernels the library ran before it went pure Python,
# kept as differential oracles for gforge.modlinalg.howell_echelon, the
# Group table check and the Cocycle identity check, and as the echelon of
# the |H|^3-row oracles above, independent of the code under test.

def howell_echelon_numpy(rows, M: int) -> list[tuple[int, ...]]:
    """howell_echelon on int64 rows, full-width steps; M < 2**31."""
    if M == 1:
        return []
    queue = [np.asarray(r, dtype=np.int64) % M for r in rows]
    pivots: dict[int, np.ndarray] = {}
    while queue:
        r = queue.pop() % M
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            continue
        c = int(nz[0])
        if c in pivots:
            p = pivots[c]
            a, b = int(p[c]), int(r[c])
            g, x, y = xgcd(a, b)
            newp = (x * p + y * r) % M
            newr = ((a // g) * r - (b // g) * p) % M
            queue.append(newr)
            if g != a % M:
                pivots[c] = newp
                queue.append(((M // gcd(g, M)) * newp) % M)
        else:
            pivots[c] = r
            queue.append(((M // gcd(int(r[c]), M)) * r) % M)
    return [tuple(pivots[c].tolist()) for c in sorted(pivots)]


def kernel_mod_numpy(a_rows, n_vars: int, M: int) -> list[tuple[int, ...]]:
    """kernel_mod on howell_echelon_numpy: the rows (column i of A | e_i)
    whose A part the echelon clears."""
    k = len(a_rows)
    aug = [[r[i] for r in a_rows] + [int(i == t) for t in range(n_vars)]
           for i in range(n_vars)]
    return [row[k:] for row in howell_echelon_numpy(aug, M) if not any(row[:k])]


def group_tables_numpy(rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(mul, inv) of a square table of ints in range(order), checked as
    Group checked it with numpy, every element's associativity slab
    included; raises GroupError with the same messages."""
    order = len(rows)
    tab = np.asarray(rows, dtype=np.int64)
    rng = np.arange(order)
    if not (np.array_equal(tab[0], rng) and np.array_equal(tab[:, 0], rng)):
        raise GroupError("identity must be element 0")
    if not np.array_equal(np.sort(tab, axis=1), np.tile(rng, (order, 1))):
        raise GroupError("rows are not permutations")
    if not np.array_equal(np.sort(tab, axis=0), np.tile(rng.reshape(-1, 1), (1, order))):
        raise GroupError("columns are not permutations")
    for a in range(order):
        # (a*b)*c vs a*(b*c), one slab per a
        if not np.array_equal(tab[tab[a]], tab[a][tab]):
            raise GroupError(f"associativity fails at element {a}")
    inv = np.argmax(tab == 0, axis=1)
    if not np.all(tab[inv, rng] == 0):
        raise GroupError("one-sided inverses only")
    return tuple(map(tuple, tab.tolist())), tuple(inv.tolist())


def cocycle_first_bad_row(sub: SubgroupData, m: int, exps) -> int | None:
    """First row i at which alpha(i,j) + alpha(ij,k) = alpha(j,k) + alpha(i,jk)
    fails mod m, checked on every row in int64 blocks as Cocycle checked it
    with numpy (m < 2**62, so a sum of two exponents fits); the product
    positions are gathered through the group, not read from sub.pmul. None
    when the identity holds."""
    size = sub.order
    tab = np.asarray(exps, dtype=np.int64)
    pmul = gathered_pmul(sub)
    step = max(1, 2 ** 20 // size ** 2)
    for start in range(0, size, step):
        rows = np.arange(start, min(start + step, size))
        lhs = (tab[rows, :, None] + tab[pmul[rows]]) % m
        rhs = (tab[None] + tab[rows[:, None, None], pmul[None]]) % m
        bad = np.any(lhs != rhs, axis=(1, 2))
        if bad.any():
            return int(rows[bad.argmax()])
    return None


def random_loop_table(rng: random.Random, grp: Group, switches: int) -> list[list[int]]:
    """A Latin square with identity 0: the table of grp with `switches`
    random intercalates (a 2x2 subsquare x y / y x off row and column 0)
    switched in turn, while there are any; that leaves rows, columns and the
    identity intact and mostly breaks associativity."""
    tab = [list(row) for row in grp._mul]
    n = grp.order
    for _ in range(switches):
        squares = [(a, b, c, d) for a in range(1, n) for b in range(a + 1, n)
                   for c in range(1, n) for d in range(c + 1, n)
                   if tab[a][c] == tab[b][d] and tab[a][d] == tab[b][c]]
        if not squares:
            break
        a, b, c, d = rng.choice(squares)
        tab[a][c], tab[a][d], tab[b][c], tab[b][d] = tab[a][d], tab[a][c], tab[b][d], tab[b][c]
    return tab


def product_table(a, b) -> list[list[int]]:
    """The direct product of two tables, (x, y) at index x * len(b) + y as in
    gforge.groups.direct_product; a loop times a group fails associativity
    first at an element past the group's."""
    nb = len(b)
    return [[a[x1][x2] * nb + b[y1][y2] for x2 in range(len(a)) for y2 in range(nb)]
            for x1 in range(len(a)) for y1 in range(nb)]


def standard_polynomial(r: int) -> GradedPolynomial:
    """s_r in degree-e variables x1..xr."""
    ids = [f"x{t + 1}" for t in range(r)]
    return GradedPolynomial(
        tuple((v, 0) for v in ids),
        tuple((_sign(s), tuple(ids[t] for t in s)) for s in permutations(range(r))))


def _sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inv % 2 else 1


def hall_polynomial() -> GradedPolynomial:
    """[[x, y]^2, z] in degree-e variables, an identity of 2x2 matrices."""
    c = (("x", "y", 1), ("y", "x", -1))
    sq = [(s1 * s2, (a1, b1, a2, b2)) for a1, b1, s1 in c for a2, b2, s2 in c]
    return GradedPolynomial(
        (("x", 0), ("y", 0), ("z", 0)),
        tuple([(s, w + ("z",)) for s, w in sq] + [(-s, ("z",) + w) for s, w in sq]))


def in_degrees(p: GradedPolynomial, degrees) -> GradedPolynomial:
    """p with its variables, in order, given the degrees."""
    return GradedPolynomial(tuple((v, g) for (v, _), g in zip(p.variables, degrees)),
                            p.monomials)


# The identity oracle's assignment scan, kept as the differential oracle for
# the walk enumeration in gforge.identities.identity_report.

def identity_report_scan(p, algebra, budget: int) -> IdentityReport:
    """Fold every monomial on every degree-respecting basis assignment, in
    itertools.product order, until one gives a nonzero value."""
    linearized = False
    if not p.multilinear:
        p = linearize(p, budget)
        linearized = True
    if not p.monomials:
        return IdentityReport(True, 0, 0, linearized, None, None)
    used = tuple(v for v, _ in p.variables
                 if any(v in s for _, s in p.monomials))
    cand = [algebra.basis_of_degree(p.vdeg[v]) for v in used]
    space = prod(len(c) for c in cand)
    if space == 0:
        return IdentityReport(True, 0, 0, linearized, None, None)
    assert space <= budget, "the scan only runs within the budget"
    pos = {v: t for t, v in enumerate(used)}
    compiled = [(coeff, tuple(pos[v] for v in seq)) for coeff, seq in p.monomials]
    grp, alpha = algebra.group, algebra.alpha
    m = alpha.modulus
    checked = 0
    for combo in iproduct(*cand):
        checked += 1
        acc: dict = {}
        for coeff, idxs in compiled:
            h, i, j = combo[idxs[0]]
            e = 0
            dead = False
            for t in idxs[1:]:
                h2, i2, j2 = combo[t]
                if j != i2:
                    dead = True
                    break
                e += alpha.value(h, h2)
                h = grp.mul(h, h2)
                j = j2
            if dead:
                continue
            key = (h, i, j)
            c = coeff * CycScalar.from_root(m, e % m)
            acc[key] = acc[key] + c if key in acc else c
        value = AlgElement(algebra, acc)
        if not value.is_zero():
            witness = dict(zip(used, combo))
            return IdentityReport(False, space, checked, linearized,
                                  witness, value)
    return IdentityReport(True, space, checked, linearized, None, None)


# The walk scan over every lead prefix, kept as the differential oracle for
# the scan over lex-least lead prefixes in gforge.identities._first_nonzero.

def identity_report_all_leads(p, algebra, budget: int | None = None) -> IdentityReport:
    """gforge.identities.identity_report with first_nonzero_all_leads as its
    scan."""
    kept = identities_mod._first_nonzero
    identities_mod._first_nonzero = first_nonzero_all_leads
    try:
        return identities_mod.identity_report(p, algebra, budget)
    finally:
        identities_mod._first_nonzero = kept


def report_fields(rep: IdentityReport) -> tuple:
    """Every field of an identity report, the counterexample and the value
    terms in their order, as one comparable tuple."""
    cex = None if rep.counterexample is None else list(rep.counterexample.items())
    value = None if rep.value is None else [
        (k, c.modulus, c.nums, c.den) for k, c in rep.value.terms.items()]
    return (rep.identity, rep.search_space, rep.checked, rep.linearized, cex, value)


def first_nonzero_all_leads(p, algebra, used, cand) -> int | None:
    """gforge.identities._first_nonzero with every lead prefix scanned: the
    walk sums of each slab of assignments with the leading variables fixed,
    slab after slab in itertools.product order."""
    pmul, exps = algebra.sub.pmul, algebra.alpha.exps
    pos = algebra.sub.pos
    m = algebra.alpha.modulus
    L = lcm(algebra._root_modulus, *(c.modulus for c, _ in p.monomials))
    den = lcm(*(c.den for c, _ in p.monomials))
    rot = _root_shifts(m, L)
    sizes = [len(c) for c in cand]
    strides = [prod(sizes[t + 1:]) for t in range(len(sizes))]
    fixed = 1
    while fixed < len(sizes) and strides[fixed - 1] > identities_mod.SLAB_LIMIT:
        fixed += 1
    index = [algebra.walk_index(p.vdeg[v]) for v in used]
    right = [by_row for by_row, _ in index]
    left = [by_col for _, by_col in index]
    var_of = {v: t for t, v in enumerate(used)}
    monos = []
    for c, seq in p.monomials:
        step, scale = L // c.modulus, den // c.den
        vec = [(t * step, x * scale) for t, x in enumerate(c.nums) if x]
        seq = [var_of[v] for v in seq]
        k = seq.index(0)
        monos.append((vec, [(t, strides[t]) for t in seq[k + 1:]],
                      [(t, strides[t]) for t in reversed(seq[:k])]))
    for lead in iproduct(*(range(s) for s in sizes[:fixed])):
        for t, c in enumerate(lead):
            h, i, j = cand[t][c]
            right[t] = {i: ((0, pos[h], j),)}
            left[t] = {j: ((0, pos[h], i),)}
        h, i, j = cand[0][lead[0]]
        start = [(0, pos[h], i, j, 0)]
        acc: dict = {}
        for vec, after, before in monos:
            walks = start
            for t, st in after:
                by_row = right[t]
                nxt = []
                for idx, ph, i, j, e in walks:
                    prow, erow = pmul[ph], exps[ph]
                    for c, pb, j2 in by_row.get(j, ()):
                        nxt.append((idx + c * st, prow[pb], i, j2, e + erow[pb]))
                walks = nxt
            for t, st in before:
                by_col = left[t]
                nxt = []
                for idx, ph, i, j, e in walks:
                    for c, pa, i2 in by_col.get(i, ()):
                        nxt.append((idx + c * st, pmul[pa][ph], i2, j, e + exps[pa][ph]))
                walks = nxt
            for idx, ph, i, j, e in walks:
                key = (idx, ph, i, j)
                sums = acc.get(key)
                if sums is None:
                    sums = acc[key] = [0] * L
                r, sign = rot[e % m]
                for t, x in vec:
                    sums[(t + r) % L] += sign * x
        best = None
        for (idx, _, _, _), sums in acc.items():
            if ((best is None or idx < best) and any(sums)
                    and any(_reduce_poly(L, sums))):
                best = idx
        if best is not None:
            return best + sum(c * st for c, st in zip(lead, strides))
    return None


# The kept-graph enumeration of lex-least lead prefixes and the product scan
# of nonvanishing_set, kept as the differential oracles of
# GradedAlgebra.lead_prefixes (a pruned depth-first generator) and of
# gforge.identities.nonvanishing_set (one test per frame and per bridge).

def lead_prefixes_by_graph(algebra, degrees: tuple):
    """The paths of a graph whose node at depth t is the count of met
    positions per block after t entries, built on the call: its edges are
    the indices c into basis_of_degree(degrees[t]) whose row and column,
    met for the first time, are each the least unmet position of its
    block."""
    rank, block_of = [0] * algebra.size, [0] * algebra.size
    for b, members in enumerate(algebra.blocks):
        for r, x in enumerate(members):
            rank[x], block_of[x] = r, b
    last = len(degrees) - 1
    nodes: dict = {}

    def node(t: int, met: tuple) -> tuple:
        hit = nodes.get((t, met))
        if hit is None:
            out = []
            for c, (_, i, j) in enumerate(algebra.basis_of_degree(degrees[t])):
                nxt = list(met)
                for x in (i, j):
                    b = block_of[x]
                    if rank[x] > nxt[b]:
                        break
                    if rank[x] == nxt[b]:
                        nxt[b] += 1
                else:
                    out.append((c, node(t + 1, tuple(nxt)) if t < last else None))
            hit = nodes[(t, met)] = tuple(out)
        return hit

    def paths(at: tuple, prefix: tuple):
        for c, child in at:
            if child is None:
                yield prefix + (c,)
            else:
                yield from paths(child, prefix + (c,))

    return paths(node(0, (0,) * len(algebra.blocks)), ())


def nonvanishing_set_by_product(bundle, budget: int | None = None) -> frozenset:
    """gforge.identities.nonvanishing_set by scanning, for each permutation,
    every tuple of bridge candidates, with the frames forced by their
    neighbours and the whole walk checked for continuity."""
    if budget is None:
        budget = CAPS.budget
    algebra = bundle.algebra
    seq = bundle.z1.monomials[0][1]
    vdeg = bundle.z1.vdeg
    free_ids = [seq[p] for p in bundle.bridges]
    cands = [algebra.basis_of_degree(vdeg[v]) for v in free_ids]
    d_e = len(bundle.designated)
    space = factorial(d_e) * prod(len(c) for c in cands)
    if space > budget:
        raise BudgetExceeded(
            f"permutation search needs {space} products, over budget {budget}")
    x_ids = [seq[p] for p in bundle.designated]
    entries = algebra.entries
    out = set()
    for sig in permutations(range(d_e)):
        vals_base = [None] * len(seq)
        for t, pos in enumerate(bundle.designated):
            vals_base[pos] = bundle.basic[x_ids[sig[t]]]
        for combo in iproduct(*cands):
            vals = list(vals_base)
            for pos, triple in zip(bundle.bridges, combo):
                vals[pos] = triple
            ok = True
            for pos in bundle.frames:
                c = vals[pos - 1][2]
                r = vals[pos + 1][1]
                if entries[c] != entries[r]:
                    ok = False
                    break
                vals[pos] = (0, c, r)
            if not ok:
                continue
            col = vals[0][2]
            for triple in vals[1:]:
                if triple[1] != col:
                    ok = False
                    break
                col = triple[2]
            if ok:
                out.add(sig)
                break
    return frozenset(out)


# The binomial word scan over every length at once, kept as the differential
# oracle for gforge.twisted.find_primitive_binomial, which scans one length
# at a time.

def find_primitive_binomial_all_lengths(alpha: Cocycle, n: int,
                                        L: int | None = None) -> BinomialDatum | None:
    """Build every word of length 1..L, bucket them by (multiset, product),
    then scan the buckets shortest first, each in lex order."""
    if n == 1:
        e = alpha.sub.elements[0]
        return binomial_datum(alpha, (e, e), (1, 0))
    if L is None:
        L = twisted_mod.CAPS.word_bound
    m = alpha.modulus
    exps, buckets = _word_data_all_lengths(alpha, L)
    for key in sorted(buckets, key=lambda k: (len(k[0]), k)):
        words = sorted(buckets[key])
        for w0 in words:
            for w in words:
                r = (exps[w0] - exps[w]) % m
                if r and m // gcd(m, r) == n:
                    return BinomialDatum(w0, _match_perm(w0, w), r)
    return None


def _word_data_all_lengths(alpha: Cocycle, L: int):
    """All words of length 1..L: exponent map and (multiset, product) buckets."""
    size = alpha.sub.order
    total = sum(size ** ell for ell in range(1, L + 1))
    budget = twisted_mod.CAPS.budget
    if total > budget:
        raise BudgetExceeded(f"word scan needs {total} words, over budget {budget}")
    grp = alpha.sub.group
    m = alpha.modulus
    exps = {}
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    layer = {(h,): (0, h) for h in alpha.sub.elements}
    for ell in range(1, L + 1):
        for w, (e, p) in layer.items():
            exps[w] = e
            buckets.setdefault((tuple(sorted(w)), p), []).append(w)
        if ell == L:
            break
        nxt = {}
        for w, (e, p) in layer.items():
            for h in alpha.sub.elements:
                nxt[w + (h,)] = ((e + alpha.value(p, h)) % m, grp.mul(p, h))
        layer = nxt
    return exps, buckets
