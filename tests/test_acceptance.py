"""End-to-end acceptance checks, one test per shipped guarantee.

Each test carries its own wall-clock bound; the conftest hook prints a
pass or fail line per test so the suite reads as a checklist.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from gforge.algebra import (RELATED_DISTINCT, SAME_BLOCK, UNRELATED,
                            GradedAlgebra, bridge, build_k_form, relate,
                            twisted_group_algebra)
from gforge.errors import PreconditionError
from gforge.groups import CosetMultiset, SubgroupData, cyclic, direct_product
from gforge.identities import (build_m_product, build_witness, is_identity,
                               is_good_permutation, nonvanishing_set,
                               path_check, pure_split, GradedPolynomial)
from gforge.presentation import (Presentation, apply_move, classify,
                                 compute_KNS, find_theta, full_derivative,
                                 iso_test, minimal_field, normalize,
                                 normalize_with_details,
                                 validate_presentation)
from gforge.twisted import (conjugate_cocycle, find_primitive_binomial,
                            galois_twist, h2_classes, lift_unit)

import helpers


@contextmanager
def clock(seconds: float):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"took {elapsed:.2f}s, bound {seconds}s"


def test_c01_dihedral_chain_and_factored_form(p_d6):
    with clock(1.0):
        chain = compute_KNS(p_d6)
        assert chain.K == (0, 3)
        nf = normalize_with_details(p_d6)
        grp = p_d6.group
        # transversal factor is exactly {e, tau}
        assert nf.transversal_factor == (0, 3)
        # the core is (e, e, sigma, sigma^2 tau) as K-coset representatives
        k_sub = SubgroupData(grp, (0, 3))
        want = sorted(k_sub.coset_id_of[x] for x in (0, 0, 1, 5))
        got = sorted(k_sub.coset_id_of[x] for x in nf.core_factor)
        assert got == want
        # the two factors multiply back to the tuple's coset multiset
        product = [grp.mul(u, c)
                   for u in nf.transversal_factor for c in nf.core_factor]
        rebuilt = CosetMultiset.from_elements(nf.presentation.sub, product)
        assert rebuilt.matches(nf.presentation.lam)


def _subgroups_over(grp, base, universe):
    """All subgroups U with base <= U <= <universe>, by closure search."""
    start = tuple(sorted(grp.closure(base)))
    seen = {start}
    frontier = [start]
    uni = set(universe)
    while frontier:
        nxt = []
        for sg in frontier:
            for g in uni:
                if g in sg:
                    continue
                c = tuple(sorted(grp.closure(sg + (g,))))
                if set(c) <= uni and c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def _factors_along_greedy(grp, sub, lam, u_elems) -> bool:
    """Divide lam by the left action of U, one orbit of the least coset at
    a time; success certifies a transversal-times-core factorization."""
    u_reps = sorted({sub.coset_id_of[u] for u in u_elems})
    remaining = {cid: m for cid, m in lam.counts}
    while any(remaining.values()):
        c = min(cid for cid, m in remaining.items() if m > 0)
        for u in u_reps:
            o = sub.coset_id_of[grp.mul(u, c)]
            if remaining.get(o, 0) < 1:
                return False
            remaining[o] -= 1
    return True


def test_c02_three_characterizations_agree():
    with clock(60.0):
        rng = random.Random(202)
        pool = helpers.group_pool(16)
        for _ in range(200):
            p = helpers.random_presentation(rng, pool, max_len=8)
            grp, sub, lam = p.group, p.sub, p.lam
            ngh = sub.normalizer
            k_stab = sorted(g for g in ngh if lam.translated(g) == lam)
            k_freq = sorted(
                g for g in ngh
                if all(lam.multiplicity(grp.mul(g, b)) == lam.multiplicity(b)
                       for b in sub.transversal))
            factoring = []
            for u in _subgroups_over(grp, sub.elements, ngh):
                blocks = lam.blocks_along(u)
                assert ((blocks is not None)
                        == helpers.factors_along_by_subgroup(grp, sub, lam, u)
                        == _factors_along_greedy(grp, sub, lam, u))
                if blocks is not None:
                    # each U-block holds [U:H] cosets of one multiplicity
                    index = len(u) // sub.order
                    assert sum(blocks.values()) * index == lam.total()
                    factoring.append(u)
            k_fact = max(factoring, key=len)
            # the factoring subgroups have a unique maximal element
            assert all(set(u) <= set(k_fact) for u in factoring)
            assert k_stab == k_freq == sorted(k_fact)
            assert tuple(k_stab) == compute_KNS(p).K


def test_c03_pauli_flags_field_identities(p_pauli, algebras):
    with clock(1.0):
        flags = classify(p_pauli)
        assert flags.division_form and flags.strongly_vp and flags.essentially_vp
        field = minimal_field(p_pauli)
        assert compute_KNS(p_pauli).n == 2 and field.is_rational()
        a = algebras["pauli"]
        plus = GradedPolynomial((("x", 1), ("y", 2)),
                                ((1, ("x", "y")), (1, ("y", "x"))))
        minus = GradedPolynomial((("x", 1), ("y", 2)),
                                 ((1, ("x", "y")), (-1, ("y", "x"))))
        assert is_identity(plus, a) is True
        assert is_identity(minus, a) is False


def test_c04_swap_division_without_strong_vp(p_swap):
    with clock(5.0):
        flags = classify(p_swap)
        assert flags.division_form is True
        assert flags.strongly_vp is False
        chain = compute_KNS(p_swap)
        assert chain.n == 3
        # the character image is the full unit group, so k descends to Q
        assert chain.sbar_image == (1, 2)
        assert chain.field.is_rational()


def test_c05_cohomology_class_counts():
    with clock(30.0):
        for order in range(1, 17):
            grp = cyclic(order)
            sub = SubgroupData(grp, range(order))
            assert len(h2_classes(sub, order)) == 1, order
        z22 = direct_product(cyclic(2), cyclic(2))
        assert len(h2_classes(SubgroupData(z22, range(4)), 2)) == 2
        z33 = direct_product(cyclic(3), cyclic(3))
        assert len(h2_classes(SubgroupData(z33, range(9)), 3)) == 3


def test_c06_derivative_recovery():
    with clock(30.0):
        rng = random.Random(606)
        pool = helpers.group_pool(16)
        matched = 0
        while matched < 100:
            p = helpers.random_presentation(rng, pool, max_len=8)
            theta = rng.choice(p.sub.normalizer)
            moved = Presentation(
                p.group, p.sub, p.alpha,
                tuple(p.group.mul(theta, x) for x in p.entries))
            assert full_derivative(moved) == full_derivative(p)
            t = find_theta(p, moved)
            assert t is not None
            # recovered element translates the multiset exactly like theta
            assert p.lam.translated(t) == p.lam.translated(theta)
            matched += 1
        perturbed = 0
        while perturbed < 100:
            p = helpers.random_presentation(rng, pool, max_len=8)
            entries = list(p.entries)
            entries[rng.randrange(len(entries))] = rng.randrange(p.group.order)
            q = Presentation(p.group, p.sub, p.alpha, tuple(entries))
            if full_derivative(q) == full_derivative(p):
                continue
            assert find_theta(p, q) is None
            perturbed += 1


def test_c07_move_orbit_invariance(corpus):
    with clock(60.0):
        rng = random.Random(707)
        names = sorted(corpus)
        bases = {name: normalize(corpus[name]) for name in names}
        chains = {name: compute_KNS(corpus[name]) for name in names}
        for trial in range(100):
            name = names[trial % len(names)]
            p = corpus[name]
            q = p
            for _ in range(rng.randint(1, 20)):
                q = apply_move(q, helpers.random_move(rng, q))
            assert normalize(q) == bases[name]
            base, moved = chains[name], compute_KNS(q)
            assert (len(moved.K), len(moved.N), len(moved.S)) == \
                (len(base.K), len(base.N), len(base.S))
            assert moved.n == base.n
            assert moved.sbar_image == base.sbar_image
            assert moved.field == base.field
            assert iso_test(p, q)


def test_c08_algebra_construction(algebras):
    with clock(60.0):
        rng = random.Random(808)
        for a in algebras.values():
            assert a.dim == a.sub.order * a.size ** 2 <= 400
            assert a.dims[0] == sum(m * m for _, m in a.presentation.lam.counts)
            assert sum(a.dims.values()) == a.dim
            triples = list(a._deg)
            els = [a.basis_element(*t) for t in triples]
            if a.dim <= 64:
                for x in els:
                    for y in els:
                        xy = x * y
                        for z in els:
                            assert xy * z == x * (y * z)
            else:
                for _ in range(10 ** 5):
                    x, y, z = (rng.choice(els) for _ in range(3))
                    assert (x * y) * z == x * (y * z)
            grp = a.group
            for tx in triples:
                for ty in triples:
                    prod = a.basis_element(*tx) * a.basis_element(*ty)
                    if not prod.is_zero():
                        assert prod.homogeneous_degree() == \
                            grp.mul(a.degree(*tx), a.degree(*ty))


def test_c09_bridge_trichotomy(algebras):
    with clock(30.0):
        for a in algebras.values():
            ebasis = a.basis_of_degree(0)
            for z in ebasis:
                for w in ebasis:
                    verdict = relate(a, z[2], w[1])
                    c = bridge(a, z, w)
                    d = a.degree(*c)
                    if verdict == SAME_BLOCK:
                        assert d == 0
                    elif verdict == RELATED_DISTINCT:
                        assert d in a.sub.eset and d != 0
                    else:
                        assert verdict == UNRELATED and d not in a.sub.eset
                    prod = (a.basis_element(*z) * a.basis_element(*c)
                            * a.basis_element(*w))
                    assert not prod.is_zero()


def test_c10_witness_walk_conditions(algebras):
    with clock(30.0):
        a = algebras["mat3"]
        wb = build_witness(a)
        frames = set(wb.frames)
        designated = set(wb.designated)
        # 1. within one diagonal block, designated elements are separated
        #    exclusively by identity-degree frame values
        row_block = a.block_of
        for prev, nxt in zip(wb.designated, wb.designated[1:]):
            if row_block[wb.e1[prev][1]] == row_block[wb.e1[nxt][1]]:
                for q in range(prev + 1, nxt):
                    assert q in frames
                    assert a.degree(*wb.e1[q]) == 0
        # 2. blocks are visited successively along the diagonal, once each
        des_blocks = [row_block[wb.e1[p][1]] for p in wb.designated]
        runs = [b for i, b in enumerate(des_blocks)
                if i == 0 or des_blocks[i - 1] != b]
        assert runs == list(range(len(a.blocks)))
        # 3. the product neither starts nor ends with a designated element
        assert 0 not in designated and len(wb.e1) - 1 not in designated
        assert a.degree(*wb.e1[0]) == 0 and a.degree(*wb.e1[-1]) == 0
        # 4. interior bridges carry the degree class their endpoints force
        for p in wb.bridges:
            if p in (0, len(wb.e1) - 1):
                continue
            h, j, k = wb.e1[p]
            verdict = relate(a, j, k)
            d = a.degree(h, j, k)
            if verdict == SAME_BLOCK:
                assert d == 0
            elif verdict == RELATED_DISTINCT:
                assert d in a.sub.eset and d != 0
            else:
                assert d not in a.sub.eset
        # the unframed core product matches the worked 3x3 walk
        assert wb.e0 == ((0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 1),
                         (0, 1, 0), (0, 0, 2), (0, 2, 2), (0, 2, 2))
        nv = nonvanishing_set(wb)
        assert tuple(range(5)) in nv
        # permutations that move the second-block variable all vanish
        assert all(s[4] == 4 for s in nv)
        assert len(nv) == 24


def _random_pure_polynomial(rng, p, size):
    grp = p.group
    while True:
        degrees = [rng.randrange(grp.order) for _ in range(size)]
        goods = [s for s in permutations(range(size))
                 if is_good_permutation(p, degrees, s)]
        extras = [s for s in goods if s != tuple(range(size))]
        ids = [f"x{t + 1}" for t in range(size)]
        monos = [(Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2))),
                  tuple(ids))]
        for s in rng.sample(extras, min(len(extras), rng.randint(0, 2))):
            coeff = Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2)))
            monos.append((coeff, tuple(ids[s[t]] for t in range(size))))
        return GradedPolynomial(
            tuple((v, d) for v, d in zip(ids, degrees)), tuple(monos))


def test_c11_path_property(p_pauli, p_inner, p_swap, algebras):
    with clock(120.0):
        rng = random.Random(1111)
        cases = [(p_pauli, algebras["pauli"]), (p_inner, algebras["inner"]),
                 (p_swap, algebras["swap"])]
        checked = 0
        while checked < 50:
            p, a = cases[checked % len(cases)]
            poly = _random_pure_polynomial(rng, p, rng.randint(2, 4))
            assert len(pure_split(poly, p)) == 1
            pr = path_check(poly, a)
            assert pr.coeffs_in_k
            assert pr.equivalent
            assert pr.vanishes[0] == pr.identity == all(pr.vanishes)
            checked += 1


def test_c12_identity_products_over_conjugates(corpus):
    with clock(30.0):
        for name, p in sorted(corpus.items()):
            chain = compute_KNS(p)
            wit = find_primitive_binomial(p.alpha, chain.n)
            assert wit is not None, name
            m = build_m_product(p.alpha, chain, wit)
            # coefficients stay inside the minimal field
            assert all(chain.field.contains(c) for c, _ in m.monomials)
            # identity of every conjugate twist
            for s in chain.S:
                conj = conjugate_cocycle(p.alpha, s)
                assert is_identity(m, twisted_group_algebra(conj)), (name, s)
            # nonidentity for every unit outside the character image
            for j in range(1, chain.n):
                if gcd(j, chain.n) != 1 or j in chain.sbar_image:
                    continue
                tw = galois_twist(
                    p.alpha, lift_unit(j, chain.n, p.alpha.modulus))
                assert not is_identity(m, twisted_group_algebra(tw)), (name, j)


def test_c13_k_form_span(p_pauli, p_swap):
    with clock(60.0):
        for p in (p_pauli, p_swap):
            res = build_k_form(p)
            rep = res.report
            # span closure terminated with a k-basis of the right size
            assert rep.ok
            assert rep.k_dim == rep.expected_dim == res.algebra.dim
            assert rep.f_span_full


def test_c14_strong_vp_implies_division_form(corpus):
    with clock(60.0):
        for name, p in corpus.items():
            flags = classify(p)
            assert flags.division_form or not flags.strongly_vp, name
        rng = random.Random(1414)
        pool = helpers.group_pool(16)
        done = 0
        while done < 100:
            p = helpers.random_presentation(rng, pool, max_len=6,
                                            with_cocycle=True)
            if not validate_presentation(p).connected:
                continue
            try:
                flags = classify(p)
            except PreconditionError:
                continue
            assert flags.division_form or not flags.strongly_vp
            done += 1
